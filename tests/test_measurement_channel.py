"""Latent channel parameters: models, joint inference, wire codecs.

The fast structural lane of the ``channel`` marker: the measurement-side
models (:mod:`repro.measurement.channel`), the substrate regressions this
PR fixed (RSSI invert round-trip, NLOS symmetric-draw validation), the
joint localizer's posterior contract, the MCMC latent-η Gibbs step, and
the serve wire codecs.  Exponent-recovery accuracy sweeps live in
``benchmarks/test_e20_joint_channel.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.jointchannel import JointChannelConfig, JointChannelLocalizer
from repro.core.bnloc import GridBPConfig
from repro.core.mcmc import MCMCConfig, MCMCLocalizer
from repro.core.potentials import (
    expected_anchor_loglik,
    expected_pairwise_loglik,
    floored_loglik,
)
from repro.experiments.config import ChannelConfig, ScenarioConfig, build_scenario
from repro.io.serialize import _ranging_from_dict, _ranging_to_dict
from repro.measurement.channel import ChannelRSSIRanging, LatentNLOSRanging
from repro.measurement.nlos import NLOSRanging, RobustRanging
from repro.measurement.ranging import (
    GaussianRanging,
    RSSIRanging,
    TOARanging,
)
from repro.measurement.rssi import PathLossModel

pytestmark = pytest.mark.channel


# --------------------------------------------------------------------- #
# substrate regressions
# --------------------------------------------------------------------- #
class TestPathLossRoundTrip:
    def test_invert_clamps_at_reference_distance(self):
        pl = PathLossModel()
        # below d0 the mean RSSI saturates, so inversion can only return d0
        for d in (0.0, pl.d0 / 10, pl.d0):
            assert pl.invert(pl.mean_rssi(np.array([d])))[0] == pl.d0

    def test_round_trip_identity_above_d0(self):
        pl = PathLossModel(shadowing_db=2.0)
        d = np.geomspace(pl.d0, 10.0, 50)
        back = pl.invert(pl.mean_rssi(d))
        np.testing.assert_allclose(back, d, rtol=1e-12)

    def test_invert_never_below_d0(self):
        pl = PathLossModel()
        # absurdly strong readings (closer than the reference distance)
        strong = pl.mean_rssi(np.array([pl.d0])) + np.array([10.0, 50.0])
        assert (pl.invert(strong) >= pl.d0).all()


class TestNLOSObserveSymmetry:
    def _model(self):
        return NLOSRanging(GaussianRanging(0.02), nlos_fraction=0.5, bias_mean=0.1)

    def test_distance_matrix_draws_are_symmetric(self):
        n = 6
        rng = np.random.default_rng(0)
        pos = rng.uniform(size=(n, 2))
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        obs = self._model().observe(d, np.random.default_rng(1))
        np.testing.assert_array_equal(obs, obs.T)

    def test_square_batch_with_nonzero_diagonal_not_symmetrized(self):
        # a coincidentally square batch of independent links must keep
        # per-entry draws — symmetrizing it would corrupt half the data
        d = np.full((4, 4), 0.3)
        obs = self._model().observe(d, np.random.default_rng(2))
        assert not np.array_equal(obs, obs.T)

    def test_draw_order_is_bit_reproducible(self):
        d = np.linspace(0.05, 0.4, 12).reshape(3, 4)
        a = self._model().observe(d, np.random.default_rng(3))
        b = self._model().observe(d, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# ChannelRSSIRanging
# --------------------------------------------------------------------- #
class TestChannelRSSIRanging:
    def test_matched_instance_is_bitwise_rssi(self):
        pl = PathLossModel(shadowing_db=3.0)
        chan = ChannelRSSIRanging(pl)
        plain = RSSIRanging(pl)
        obs = np.geomspace(1e-3, 2.0, 30)
        cand = np.geomspace(1e-3, 2.0, 30)
        np.testing.assert_array_equal(
            chan.log_likelihood(obs[:, None], cand[None, :]),
            plain.log_likelihood(obs[:, None], cand[None, :]),
        )

    def test_matched_observe_distribution_matches_rssi(self):
        # draws go through dB space (sign-flipped shadowing), so only the
        # distribution — log-normal around d with sigma log_sigma — matches
        pl = PathLossModel(shadowing_db=3.0)
        chan = ChannelRSSIRanging(pl)
        d = np.full(20000, 0.5)
        obs = chan.observe(d, np.random.default_rng(7))
        logs = np.log(obs / 0.5)
        assert abs(logs.mean()) < 0.01
        assert abs(logs.std() - chan.log_sigma) < 0.01

    def test_miscalibrated_observe_slope(self):
        # log(d_obs/d0) should average (eta/eta0) * log(d/d0)
        pl = PathLossModel(path_loss_exponent=4.0, shadowing_db=2.0)
        chan = ChannelRSSIRanging(pl, inversion_exponent=3.0)
        d = np.full(20000, 0.3)
        obs = chan.observe(d, np.random.default_rng(11))
        mean_log = np.log(obs / pl.d0).mean()
        expected = (4.0 / 3.0) * np.log(0.3 / pl.d0)
        assert abs(mean_log - expected) < 0.02

    def test_with_exponent_keeps_inversion(self):
        chan = ChannelRSSIRanging(
            PathLossModel(path_loss_exponent=4.0, shadowing_db=2.0),
            inversion_exponent=3.0,
        )
        hyp = chan.with_exponent(2.5)
        assert hyp.path_loss.path_loss_exponent == 2.5
        assert hyp.inversion_exponent == 3.0
        assert chan.path_loss.path_loss_exponent == 4.0

    def test_zero_shadowing_rejected(self):
        with pytest.raises(ValueError):
            ChannelRSSIRanging(PathLossModel(shadowing_db=0.0))


# --------------------------------------------------------------------- #
# LatentNLOSRanging
# --------------------------------------------------------------------- #
class TestLatentNLOSRanging:
    def _pair(self, eps=0.2):
        base = ChannelRSSIRanging(PathLossModel(shadowing_db=2.0))
        return (
            LatentNLOSRanging(base, eps, 0.1),
            RobustRanging(base, eps, 0.1),
        )

    def test_likelihood_inherited_bitwise_from_robust(self):
        latent, robust = self._pair()
        obs = np.geomspace(1e-3, 3.0, 25)
        cand = np.geomspace(1e-3, 3.0, 25)
        np.testing.assert_array_equal(
            latent.log_likelihood(obs[:, None], cand[None, :]),
            robust.log_likelihood(obs[:, None], cand[None, :]),
        )

    @pytest.mark.parametrize("shadowing", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("eps", [0.01, 0.2, 0.8])
    def test_responsibilities_are_proper(self, shadowing, eta, eps):
        # across the (sigma, eta, NLOS-fraction) grid the per-element
        # posterior must be a probability: in [0, 1], never NaN
        model = LatentNLOSRanging(
            ChannelRSSIRanging(
                PathLossModel(
                    path_loss_exponent=eta, shadowing_db=shadowing
                ),
                inversion_exponent=3.0,
            ),
            eps,
            0.1,
        )
        grid = np.concatenate([[0.0, 1e-300], np.geomspace(1e-9, 1e150, 25)])
        with np.errstate(all="ignore"):
            r = model.responsibilities(grid[:, None], grid[None, :])
        assert not np.isnan(r).any()
        assert (r >= 0.0).all() and (r <= 1.0).all()

    def test_dead_tails_return_prior(self):
        # both mixture components underflow for an observation far BELOW
        # the candidate (the EMG has no left tail either) — the data is
        # uninformative there, so the prior must come back
        model = LatentNLOSRanging(GaussianRanging(0.01), 0.2, 0.1)
        with np.errstate(all="ignore"):
            r = model.responsibilities(np.array([0.0]), np.array([1e160]))
        assert r[0] == pytest.approx(0.2)

    def test_large_positive_residual_is_nlos(self):
        model = LatentNLOSRanging(GaussianRanging(0.01), 0.2, 0.1)
        with np.errstate(all="ignore"):
            r = model.responsibilities(np.array([2.0]), np.array([0.5]))
        assert r[0] > 0.99

    def test_with_fraction_shares_base(self):
        latent, _ = self._pair(eps=0.05)
        updated = latent.with_fraction(0.4)
        assert updated.base is latent.base
        assert updated.nlos_fraction == 0.4
        assert updated.bias_mean == latent.bias_mean
        assert latent.nlos_fraction == 0.05


# --------------------------------------------------------------------- #
# scoring helpers
# --------------------------------------------------------------------- #
class TestExpectedLoglik:
    def test_floored_loglik_is_finite(self):
        model = GaussianRanging(1e-6)
        ll = floored_loglik(model, 0.5, np.array([0.0, 0.5, 1e300]))
        assert np.isfinite(ll).all()

    def test_expected_logliks_match_manual(self):
        model = GaussianRanging(0.05)
        d = np.array([0.1, 0.5, 0.9])
        belief = np.array([0.2, 0.5, 0.3])
        ll = floored_loglik(model, 0.45, d)
        assert expected_anchor_loglik(model, 0.45, d, belief) == pytest.approx(
            float(belief @ ll)
        )
        cell = np.abs(d[:, None] - d[None, :]) + 0.05
        llp = floored_loglik(model, 0.2, cell)
        assert expected_pairwise_loglik(
            model, 0.2, cell, belief, belief
        ) == pytest.approx(float(belief @ llp @ belief))


# --------------------------------------------------------------------- #
# joint localizer
# --------------------------------------------------------------------- #
def _joint_scenario(seed=3, true_eta=4.0):
    cfg = ScenarioConfig(
        n_nodes=20,
        anchor_ratio=0.2,
        radio_range=0.35,
        ranging="rssi",
        pk_error=None,
        channel=ChannelConfig(
            path_loss_exponent=true_eta,
            assumed_exponent=3.0,
            shadowing_db=2.0,
        ),
    )
    return build_scenario(cfg, seed)


def _joint_localizer(prior, **overrides):
    kwargs = dict(
        grid=GridBPConfig(grid_size=8, max_iterations=10)
    )
    kwargs.update(overrides)
    return JointChannelLocalizer(prior=prior, config=JointChannelConfig(**kwargs))


class TestJointChannelLocalizer:
    def test_posterior_contract_and_bit_reproducibility(self):
        net, ms, prior = _joint_scenario()
        loc = _joint_localizer(prior)
        r1 = loc.localize(ms)
        r2 = loc.localize(ms)
        np.testing.assert_array_equal(r1.estimates, r2.estimates)
        assert r1.extras["eta_scores"] == r2.extras["eta_scores"]
        q = np.asarray(r1.extras["eta_posterior"])
        assert q.sum() == pytest.approx(1.0)
        assert (q >= 0).all()
        assert r1.extras["eta_map"] in r1.extras["eta_support"]
        lo, hi = min(r1.extras["eta_support"]), max(r1.extras["eta_support"])
        assert lo <= r1.extras["eta_mean"] <= hi
        for i, j, resp in r1.extras["link_responsibilities"]:
            assert 0.0 <= resp <= 1.0
        assert 0.0 < r1.extras["nlos_fraction"] < 1.0
        assert r1.localized_mask[~ms.anchor_mask].all()

    def test_sparse_scoring_matches_dense(self):
        net, ms, prior = _joint_scenario()
        sparse = _joint_localizer(prior).localize(ms)
        dense = _joint_localizer(prior, score_cells=None).localize(ms)
        assert sparse.extras["eta_map"] == dense.extras["eta_map"]
        np.testing.assert_allclose(
            sparse.extras["eta_scores"], dense.extras["eta_scores"], rtol=1e-6
        )

    def test_recovers_true_exponent(self):
        net, ms, prior = _joint_scenario(seed=5, true_eta=4.0)
        res = _joint_localizer(prior).localize(ms)
        assert res.extras["eta_map"] >= 3.5

    def test_non_rssi_ranging_rejected(self):
        cfg = ScenarioConfig(
            n_nodes=16, anchor_ratio=0.25, radio_range=0.35, ranging="toa"
        )
        net, ms, prior = build_scenario(cfg, 1)
        with pytest.raises(ValueError, match="RSSI"):
            _joint_localizer(prior).localize(ms)

    def test_nlos_off_skips_responsibilities(self):
        net, ms, prior = _joint_scenario()
        res = _joint_localizer(prior, estimate_nlos=False).localize(ms)
        assert res.extras["link_responsibilities"] == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            JointChannelConfig(eta_support=())
        with pytest.raises(ValueError):
            JointChannelConfig(eta_support=(2.0, 2.0))
        with pytest.raises(ValueError):
            JointChannelConfig(em_iterations=0)
        with pytest.raises(ValueError):
            JointChannelConfig(nlos_fraction_bounds=(0.5, 0.2))
        with pytest.raises(ValueError):
            JointChannelConfig(score_cells=0)


# --------------------------------------------------------------------- #
# MCMC latent-eta Gibbs step
# --------------------------------------------------------------------- #
@pytest.mark.mcmc
class TestMCMCLatentEta:
    def _scenario(self):
        cfg = ScenarioConfig(
            n_nodes=16,
            anchor_ratio=0.25,
            radio_range=0.4,
            ranging="rssi",
            pk_error=None,
            channel=ChannelConfig(
                path_loss_exponent=4.0, assumed_exponent=3.0, shadowing_db=2.0
            ),
        )
        return build_scenario(cfg, 5)

    def test_disabled_by_default(self):
        net, ms, prior = self._scenario()
        cfg = MCMCConfig(n_chains=1, n_samples=10, burn_in=5)
        res = MCMCLocalizer(prior=prior, config=cfg).localize(
            ms, np.random.default_rng(0)
        )
        assert "eta_map" not in res.extras

    def test_gibbs_posterior_contract(self):
        net, ms, prior = self._scenario()
        cfg = MCMCConfig(
            n_chains=2, n_samples=20, burn_in=10,
            eta_support=(2.0, 3.0, 4.0),
        )
        r1 = MCMCLocalizer(prior=prior, config=cfg).localize(
            ms, np.random.default_rng(1)
        )
        r2 = MCMCLocalizer(prior=prior, config=cfg).localize(
            ms, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(r1.estimates, r2.estimates)
        assert r1.extras["eta_posterior"] == r2.extras["eta_posterior"]
        q = np.asarray(r1.extras["eta_posterior"])
        assert q.sum() == pytest.approx(1.0)
        assert r1.extras["eta_map"] in (2.0, 3.0, 4.0)
        assert 2.0 <= r1.extras["eta_mean"] <= 4.0

    def test_non_rssi_rejected(self):
        cfg = ScenarioConfig(
            n_nodes=16, anchor_ratio=0.25, radio_range=0.4, ranging="gaussian"
        )
        net, ms, prior = build_scenario(cfg, 2)
        mcfg = MCMCConfig(n_chains=1, n_samples=10, burn_in=5,
                          eta_support=(2.0, 3.0))
        with pytest.raises(ValueError):
            MCMCLocalizer(prior=prior, config=mcfg).localize(
                ms, np.random.default_rng(0)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCMCConfig(eta_support=())
        with pytest.raises(ValueError):
            MCMCConfig(eta_support=(3.0, 3.0))


# --------------------------------------------------------------------- #
# wire codecs
# --------------------------------------------------------------------- #
class TestRangingWireCodecs:
    MODELS = [
        TOARanging(0.01, mean_delay=0.002, speed=2.0),
        RSSIRanging(PathLossModel(shadowing_db=3.0)),
        ChannelRSSIRanging(
            PathLossModel(path_loss_exponent=4.0, shadowing_db=2.0),
            inversion_exponent=3.0,
        ),
        NLOSRanging(GaussianRanging(0.02), 0.2, 0.1),
        RobustRanging(RSSIRanging(PathLossModel(shadowing_db=2.5)), 0.1, 0.15),
        LatentNLOSRanging(
            ChannelRSSIRanging(
                PathLossModel(shadowing_db=2.0), inversion_exponent=3.5
            ),
            0.05,
            0.12,
        ),
    ]

    @pytest.mark.parametrize(
        "model", MODELS, ids=[type(m).__name__ for m in MODELS]
    )
    def test_round_trip_preserves_likelihood(self, model):
        wire = json.loads(json.dumps(_ranging_to_dict(model)))
        back = _ranging_from_dict(wire)
        assert type(back) is type(model)
        obs = np.array([0.05, 0.1, 0.2])
        cand = np.array([0.04, 0.12, 0.3])
        np.testing.assert_array_equal(
            model.log_likelihood(obs[:, None], cand[None, :]),
            back.log_likelihood(obs[:, None], cand[None, :]),
        )

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown ranging wire type"):
            _ranging_from_dict({"type": "mystery"})

    def test_measurements_round_trip_with_channel_model(self):
        from repro.io.serialize import (
            measurements_from_dict,
            measurements_to_dict,
        )

        net, ms, prior = _joint_scenario()
        back = measurements_from_dict(
            json.loads(json.dumps(measurements_to_dict(ms)))
        )
        assert type(back.ranging) is type(ms.ranging)
        np.testing.assert_array_equal(back.adjacency, ms.adjacency)
        m = np.isfinite(ms.observed_distances)
        np.testing.assert_allclose(
            back.observed_distances[m], ms.observed_distances[m]
        )


# --------------------------------------------------------------------- #
# config plumbing
# --------------------------------------------------------------------- #
class TestChannelConfig:
    def test_round_trip(self):
        cfg = ChannelConfig(
            path_loss_exponent=3.5,
            assumed_exponent=3.0,
            shadowing_db=2.0,
            eta_support=(2.0, 3.0, 4.0),
        )
        back = ChannelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_scenario_round_trip_with_channel(self):
        cfg = ScenarioConfig(
            n_nodes=20,
            ranging="rssi",
            channel=ChannelConfig(path_loss_exponent=3.5, assumed_exponent=3.0),
        )
        back = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.channel == cfg.channel

    def test_channel_requires_rssi(self):
        with pytest.raises(ValueError):
            ScenarioConfig(ranging="toa", channel=ChannelConfig())

    def test_make_ranging_is_matched_oracle(self):
        cfg = ChannelConfig(path_loss_exponent=4.0, assumed_exponent=3.0)
        model = cfg.make_ranging()
        assert isinstance(model, ChannelRSSIRanging)
        assert model.path_loss.path_loss_exponent == 4.0
        assert model.inversion_exponent == 3.0
