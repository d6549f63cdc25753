"""Unit tests for repro.core.grid and repro.core.potentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.grid import Grid2D
from repro.core.potentials import (
    RangingPotentialCache,
    _blurred_likelihood,
    anchor_bearing_potential,
    anchor_bearing_rows,
    anchor_connectivity_potential,
    anchor_ranging_potential,
    connectivity_potential,
    negative_anchor_potential,
    pairwise_ranging_potential,
    ranging_potential_from_distances,
    ranging_potential_rows,
)
from repro.measurement import (
    BearingModel,
    ChannelRSSIRanging,
    LatentNLOSRanging,
    ProportionalGaussianRanging,
    RobustRanging,
    RSSIRanging,
    TOARanging,
)
from repro.measurement.ranging import GaussianRanging
from repro.network.radio import (
    IrregularRadio,
    LogNormalShadowingRadio,
    QuasiUnitDiskRadio,
    UnitDiskRadio,
)


class TestGrid2D:
    def test_centers_layout(self):
        g = Grid2D(2, 2)
        np.testing.assert_allclose(
            g.centers, [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        )

    def test_rectangular_field(self):
        g = Grid2D(4, 2, width=2.0, height=1.0)
        assert g.n_cells == 8
        assert g.cell_width == pytest.approx(0.5)
        assert g.cell_height == pytest.approx(0.5)
        assert (g.centers[:, 0] <= 2.0).all()

    def test_pairwise_cached_and_symmetric(self):
        g = Grid2D(5)
        d = g.pairwise_center_distances()
        assert d is g.pairwise_center_distances()
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_distances_to_point(self):
        g = Grid2D(3)
        d = g.distances_to_point(np.array([0.5, 0.5]))
        assert d[4] == pytest.approx(0.0)  # center cell of 3x3

    def test_cell_of_round_trip(self):
        g = Grid2D(10)
        cells = g.cell_of(g.centers)
        np.testing.assert_array_equal(cells, np.arange(g.n_cells))

    def test_cell_of_clips(self):
        g = Grid2D(4)
        assert g.cell_of(np.array([[-1.0, -1.0]]))[0] == 0
        assert g.cell_of(np.array([[5.0, 5.0]]))[0] == g.n_cells - 1

    def test_expectation_delta(self):
        g = Grid2D(6)
        w = np.zeros(g.n_cells)
        w[7] = 1.0
        np.testing.assert_allclose(g.expectation(w), g.centers[7])

    def test_expectation_uniform_is_field_center(self):
        g = Grid2D(8)
        w = np.full(g.n_cells, 1.0)
        np.testing.assert_allclose(g.expectation(w), [0.5, 0.5])

    def test_covariance_positive_semidefinite(self):
        g = Grid2D(8)
        rng = np.random.default_rng(0)
        w = rng.uniform(size=g.n_cells)
        cov = g.covariance(w)
        eig = np.linalg.eigvalsh(cov)
        assert (eig >= -1e-12).all()

    def test_map_estimate(self):
        g = Grid2D(5)
        w = np.zeros(g.n_cells)
        w[13] = 2.0
        np.testing.assert_allclose(g.map_estimate(w), g.centers[13])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(1)
        with pytest.raises(ValueError):
            Grid2D(5).expectation(np.ones(7))
        with pytest.raises(ValueError):
            Grid2D(5).expectation(np.zeros(25))
        with pytest.raises(ValueError):
            Grid2D(5).distances_to_point(np.zeros(3))


def _row_mean(grid, w):
    """The per-row MMSE formula ``Grid2D.expectation`` used before
    :meth:`Grid2D.moments` existed."""
    return (w[:, None] * grid.centers).sum(axis=0) / w.sum()


def _row_cov(grid, w):
    """The per-row covariance formula ``Grid2D.covariance`` used before
    :meth:`Grid2D.moments` existed."""
    d = grid.centers - _row_mean(grid, w)
    return np.einsum("k,ki,kj->ij", w / w.sum(), d, d)


class TestMoments:
    """``Grid2D.moments`` is the one implementation of the belief moments;
    each row must be bit-identical to the per-row formulas."""

    @pytest.mark.parametrize("shape", [(2, 2), (5, 9), (12, 12), (24, 24)])
    def test_rows_bit_equal_to_per_row_formulas(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        g = Grid2D(shape[0], shape[1], 1.7, 0.6)
        for sharpness in (1.0, 8.0, 60.0):
            block = rng.uniform(size=(7, g.n_cells)) ** sharpness
            means, covs = g.moments(block)
            assert means.shape == (7, 2) and covs.shape == (7, 2, 2)
            for r, w in enumerate(block):
                assert np.array_equal(means[r], _row_mean(g, w))
                assert np.array_equal(covs[r], _row_cov(g, w))
                assert np.array_equal(g.expectation(w), means[r])
                assert np.array_equal(g.covariance(w), covs[r])

    def test_one_cell_belief(self):
        g = Grid2D(6, 4, 1.2, 0.8)
        w = np.zeros(g.n_cells)
        w[9] = 0.25
        means, covs = g.moments(w[None, :])
        assert np.array_equal(means[0], _row_mean(g, w))
        assert np.array_equal(covs[0], _row_cov(g, w))
        assert np.allclose(means[0], g.centers[9])
        assert np.allclose(covs[0], 0.0)

    def test_one_row_block(self):
        g = Grid2D(7)
        w = np.random.default_rng(4).uniform(size=g.n_cells)
        means, covs = g.moments(w[None, :])
        assert np.array_equal(means, _row_mean(g, w)[None, :])
        assert np.array_equal(covs, _row_cov(g, w)[None, :, :])

    def test_strided_block(self):
        g = Grid2D(5)
        block = np.random.default_rng(5).uniform(size=(6, g.n_cells))[::-2]
        means, covs = g.moments(block)
        for r, w in enumerate(block):
            assert np.array_equal(means[r], _row_mean(g, w))
            assert np.array_equal(covs[r], _row_cov(g, w))

    def test_validation(self):
        g = Grid2D(5)
        with pytest.raises(ValueError, match="shape"):
            g.moments(np.ones(g.n_cells))
        with pytest.raises(ValueError, match="shape"):
            g.moments(np.ones((2, 7)))
        block = np.ones((3, g.n_cells))
        block[1] = 0.0
        with pytest.raises(ValueError, match="positive mass"):
            g.moments(block)


def _einsum_moments(grid, w):
    """The block formula :meth:`Grid2D.moments` used before its ``(K, R)``
    reductions; it pins the sum order the golden traces depend on."""
    total = w.sum(axis=1)[:, None]
    means = (w[:, :, None] * grid.centers).sum(axis=1) / total
    d = grid.centers - means[:, None, :]
    return means, np.einsum("rk,rki,rkj->rij", w / total, d, d)


def _edge_block(rng, n_rows, n_cells):
    """Belief rows with exact zeros, one-hot rows and rows near e**-90."""
    block = rng.uniform(size=(n_rows, n_cells)) ** rng.uniform(1.0, 40.0)
    block[rng.uniform(size=block.shape) < 0.3] = 0.0
    for r in range(n_rows):
        kind = r % 4
        if kind == 1:
            block[r] = 0.0
            block[r, rng.integers(n_cells)] = rng.uniform(0.1, 2.0)
        elif kind == 2:
            block[r] = np.exp(-90.0) * (rng.uniform(size=n_cells) + 0.01)
        elif not block[r].any():  # never a zero-mass row
            block[r, rng.integers(n_cells)] = 0.5
    return block


class TestMomentsSumOrder:
    """Byte equality of :meth:`Grid2D.moments` with the three-operand
    einsum it replaced: every sum runs in cell order (the lone-row case
    included), on C- and F-ordered input."""

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 8, 257])
    @pytest.mark.parametrize("shape", [(8, 8), (16, 9), (24, 24)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_byte_equal_to_einsum(self, n_rows, shape, order):
        g = Grid2D(shape[0], shape[1], 1.7, 0.6)
        rng = np.random.default_rng(n_rows * 1009 + shape[0] * 31 + shape[1])
        block = np.asarray(_edge_block(rng, n_rows, g.n_cells), order=order)
        means, covs = g.moments(block)
        want_means, want_covs = _einsum_moments(g, block)
        assert means.tobytes() == want_means.tobytes()
        assert covs.tobytes() == want_covs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 40),
        nx=st.integers(2, 16),
        ny=st.integers(2, 16),
    )
    def test_byte_equal_to_einsum_random(self, seed, n_rows, nx, ny):
        g = Grid2D(nx, ny, 0.9, 1.4)
        block = _edge_block(np.random.default_rng(seed), n_rows, g.n_cells)
        means, covs = g.moments(block)
        want_means, want_covs = _einsum_moments(g, block)
        assert means.tobytes() == want_means.tobytes()
        assert covs.tobytes() == want_covs.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_zero_mass_row_raises(self, n_rows):
        g = Grid2D(12, 12)
        block = np.ones((n_rows, g.n_cells))
        block[-1] = 0.0
        with pytest.raises(ValueError, match="positive mass"):
            g.moments(block)


class TestPotentials:
    GRID = Grid2D(12)
    RANGING = GaussianRanging(0.05)
    RADIO = UnitDiskRadio(0.25)

    def test_pairwise_peak_at_observed_distance(self):
        D = self.GRID.pairwise_center_distances()
        psi = pairwise_ranging_potential(D, 0.3, self.RANGING)
        # max entries should be where |D - 0.3| minimal
        best = np.unravel_index(np.argmax(psi), psi.shape)
        assert abs(D[best] - 0.3) < self.GRID.cell_diagonal

    def test_pairwise_radio_masks_out_of_range(self):
        D = self.GRID.pairwise_center_distances()
        psi = pairwise_ranging_potential(D, 0.2, self.RANGING, self.RADIO)
        assert (psi[D > 0.25] == 0).all()

    def test_pairwise_outlier_falls_back_to_link_evidence(self):
        # An observed distance inconsistent with the link constraint (a
        # gross NLOS outlier) must not zero the factor: the range is
        # discarded and the link-only potential kept.
        D = self.GRID.pairwise_center_distances()
        psi = pairwise_ranging_potential(
            D, 0.2, GaussianRanging(0.001), UnitDiskRadio(0.05)
        )
        np.testing.assert_array_equal(
            psi > 0, UnitDiskRadio(0.05).p_detect(D) > 0
        )

    def test_pairwise_without_radio_always_has_mass(self):
        # Without a link model the likelihood is max-shifted before
        # exponentiation, so even an absurd observed distance keeps its
        # best-fitting cells at weight 1 (relative likelihood).
        D = self.GRID.pairwise_center_distances()
        psi = pairwise_ranging_potential(D, 1e3, GaussianRanging(1e-3))
        assert psi.max() == pytest.approx(1.0)

    def test_connectivity_potential(self):
        D = self.GRID.pairwise_center_distances()
        psi = connectivity_potential(D, self.RADIO)
        assert (psi[D <= 0.25] == 1.0).all()
        assert (psi[D > 0.25] == 0.0).all()

    def test_anchor_ranging_annulus(self):
        pot = anchor_ranging_potential(
            self.GRID, np.array([0.5, 0.5]), 0.3, self.RANGING
        )
        d = self.GRID.distances_to_point(np.array([0.5, 0.5]))
        near_annulus = np.abs(d - 0.3) < 0.03
        far = np.abs(d - 0.3) > 0.2
        assert pot[near_annulus].min() > pot[far].max()

    def test_anchor_connectivity_disk(self):
        pot = anchor_connectivity_potential(
            self.GRID, np.array([0.5, 0.5]), self.RADIO
        )
        d = self.GRID.distances_to_point(np.array([0.5, 0.5]))
        assert (pot[d <= 0.25] == 1.0).all()
        assert (pot[d > 0.25] == 0.0).all()

    def test_negative_anchor_pushes_out(self):
        pot = negative_anchor_potential(self.GRID, np.array([0.5, 0.5]), self.RADIO)
        d = self.GRID.distances_to_point(np.array([0.5, 0.5]))
        assert (pot[d <= 0.25] == 0.0).all()
        assert (pot[d > 0.25] == 1.0).all()

    def test_negative_anchor_full_coverage_raises(self):
        with pytest.raises(ValueError):
            negative_anchor_potential(
                self.GRID, np.array([0.5, 0.5]), UnitDiskRadio(5.0)
            )


class TestBlurQuadrature:
    """The 3-point Gauss–Hermite blur against dense integration over ε.

    Peak-normalized max-abs error measured with σ = 0.1: 2e-7 at
    σ_blur/σ = 0.1, 2e-4 at 0.34, 9.3e-3 at 0.67 (the audit's grid 10),
    1.2e-2 at 0.7.  At ratio 1 it is 0.062 and at 1.75 0.36, outside the
    rule's reach; this test covers ratios ≤ 0.7.
    """

    SIGMA = 0.1
    OBSERVED = 0.5

    @pytest.mark.parametrize("ratio", [0.1, 0.34, 0.5, 0.67, 0.7])
    def test_matches_dense_quadrature(self, ratio):
        from repro.core.potentials import _blurred_likelihood

        ranging = GaussianRanging(self.SIGMA)
        blur = ratio * self.SIGMA
        d = np.linspace(0.0, 1.5, 601)
        eps = np.linspace(-8 * blur, 8 * blur, 4001)
        weights = np.exp(-0.5 * (eps / blur) ** 2)
        shifted = np.maximum(d[:, None] + eps[None, :], 0.0)
        lik = np.exp(ranging.log_likelihood(self.OBSERVED, shifted))
        dense = np.trapezoid(lik * weights, eps, axis=1)
        gh = _blurred_likelihood(d, self.OBSERVED, ranging, blur)
        err = np.abs(gh / gh.max() - dense / dense.max()).max()
        assert err <= 2e-2


class _Replay(GaussianRanging):
    """Returns fresh full-shape copies of given likelihood arrays, in turn."""

    def __init__(self, arrays):
        super().__init__(1.0)
        self.arrays = iter(arrays)

    def log_likelihood(self, observed, candidates):
        return np.array(np.broadcast_to(next(self.arrays), np.shape(candidates)))


class TestPotentialRows:
    """One ``(L, K)`` slab equals L one-link potentials bit for bit."""

    GRID = Grid2D(10, 7, 1.0, 0.7)

    @pytest.mark.parametrize(
        "ranging",
        [
            GaussianRanging(0.02),
            ProportionalGaussianRanging(0.1),
            TOARanging(0.03, mean_delay=0.01),
            RSSIRanging(),
            ChannelRSSIRanging(inversion_exponent=2.5),
            RobustRanging(GaussianRanging(0.02)),
        ],
        ids=["gauss", "proportional", "toa", "rssi", "channel", "robust"],
    )
    @pytest.mark.parametrize("blur", [0.0, 0.02])
    @pytest.mark.parametrize("radio", [None, QuasiUnitDiskRadio(0.4, 0.5)])
    def test_rows_match_one_link_potentials(self, ranging, blur, radio):
        rng = np.random.default_rng(2)
        anchors = rng.uniform(0.0, 0.7, size=(4, 2))
        fields = np.stack([self.GRID.distances_to_point(p) for p in anchors])
        link_a = np.array([0, 0, 1, 2, 2, 2, 3])
        observed = rng.uniform(0.05, 0.5, size=len(link_a))
        observed[3] = 30.0  # gross outlier: the p_detect fallback row
        pd = radio.p_detect(fields) if radio is not None else None
        slab = ranging_potential_rows(
            fields[link_a],
            observed[:, None],
            ranging,
            blur_sigma=blur,
            p_detect=pd[link_a] if pd is not None else None,
        )
        for row, (a, obs) in enumerate(zip(link_a, observed)):
            one = ranging_potential_from_distances(
                fields[a], obs, ranging, radio, blur_sigma=blur
            )
            assert np.array_equal(slab[row], one)

    @pytest.mark.parametrize("blur", [0.0, 0.02])
    @pytest.mark.parametrize("radio", [None, QuasiUnitDiskRadio(0.4, 0.5)])
    def test_in_place_slab_byte_equal_and_inputs_untouched(self, blur, radio):
        # The slab's quadrature runs in place on the likelihood arrays; it
        # must give each one-link potential's bytes (a gross-outlier row
        # falling back to p_detect included) and leave its inputs alone.
        ranging = GaussianRanging(0.02)
        rng = np.random.default_rng(5)
        anchors = rng.uniform(0.0, 0.7, size=(3, 2))
        fields = np.stack([self.GRID.distances_to_point(p) for p in anchors])
        link_a = np.array([0, 1, 1, 2, 0])
        observed = rng.uniform(0.05, 0.5, size=len(link_a))
        observed[2] = 30.0  # dead row: no in-range cell explains it
        distances = fields[link_a]
        pd = radio.p_detect(distances) if radio is not None else None
        kept = (distances.copy(), None if pd is None else pd.copy())
        slab = ranging_potential_rows(
            distances, observed[:, None], ranging, blur_sigma=blur, p_detect=pd
        )
        for row, (a, obs) in enumerate(zip(link_a, observed)):
            one = ranging_potential_from_distances(
                fields[a], obs, ranging, radio, blur_sigma=blur
            )
            assert slab[row].tobytes() == one.tobytes()
        if radio is not None:
            assert slab[2].tobytes() == (pd[2] / pd[2].max()).tobytes()
        assert distances.tobytes() == kept[0].tobytes()
        if pd is not None:
            assert pd.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("blur", [0.0, 0.02])
    @pytest.mark.parametrize("form", ["read-only", "view", "column"])
    def test_slab_copies_likelihood_arrays_it_may_not_own(self, blur, form):
        # A model returning a read-only array, a view of a kept array or
        # an (L, 1) column keeps its arrays intact, and the slab still
        # equals the one with fresh arrays.
        class Kept(GaussianRanging):
            returned: list = []

            def log_likelihood(self, observed, candidates):
                ll = super().log_likelihood(observed, candidates)
                if form == "column":
                    ll = ll[:, :1]
                self.returned.append((ll, ll.copy()))
                if form == "read-only":
                    ll.flags.writeable = False
                return ll[:] if form == "view" else ll

        rng = np.random.default_rng(9)
        distances = np.stack(
            [self.GRID.distances_to_point(p) for p in rng.uniform(0.0, 0.7, (4, 2))]
        )
        observed = rng.uniform(0.05, 0.5, size=(4, 1))
        model = Kept(0.02)
        slab = ranging_potential_rows(distances, observed, model, blur_sigma=blur)
        fresh = [ll.copy() for ll, _ in model.returned]
        expected = ranging_potential_rows(
            distances, observed, _Replay(fresh), blur_sigma=blur
        )
        assert slab.tobytes() == expected.tobytes()
        for ll, copy in model.returned:
            assert ll.tobytes() == copy.tobytes()

    def test_bearing_rows_match_one_link_potentials(self):
        # Anchors on cell-center rows/columns (bearing ±π ties) and links
        # with one side missing (NaN) included.
        model = BearingModel(0.2)
        anchors = np.array([[0.35, 0.45], [0.05, 0.62], [0.71, 0.13]])
        to_anchor = np.stack([self.GRID.bearings_to_point(p) for p in anchors])
        link_a = np.array([0, 0, 1, 1, 2])
        from_node = np.array([0.3, np.nan, -2.9, 3.1, 1.0])
        from_anchor = np.array([np.nan, -1.2, 0.2, 3.14159, -0.4])
        slab = anchor_bearing_rows(
            to_anchor[link_a], from_node[:, None], from_anchor[:, None], model
        )
        for row, a in enumerate(link_a):
            one = anchor_bearing_potential(
                self.GRID, anchors[a], from_node[row], from_anchor[row], model
            )
            assert np.array_equal(slab[row], one)
        with pytest.raises(ValueError, match="missing"):
            anchor_bearing_rows(
                to_anchor[:1], np.array([[np.nan]]), np.array([[np.nan]]), model
            )

    def test_zero_mass_row_raises(self):
        d = np.stack([self.GRID.distances_to_point(np.array([0.1, 0.1]))] * 2)
        with pytest.raises(ValueError, match="zero mass"):
            ranging_potential_rows(
                d, np.array([[0.2], [0.3]]), GaussianRanging(0.02),
                p_detect=np.zeros_like(d),
            )


class TestRangingPotentialCache:
    GRID = Grid2D(10)
    RANGING = GaussianRanging(0.05)

    def test_sharing(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING)
        a = cache.get(0.200)
        b = cache.get(0.2001)  # same quantum bucket
        assert a is b
        assert cache.n_cached == 1
        cache.get(0.35)
        assert cache.n_cached == 2

    def test_matches_dense_computation(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING, truncate=0.0)
        q = cache.quantum
        d_obs = 7 * q  # exactly on a quantum point: no rounding error
        sparse_psi = cache.get(d_obs).toarray()
        dense = pairwise_ranging_potential(
            self.GRID.pairwise_center_distances(), d_obs, self.RANGING
        )
        np.testing.assert_allclose(sparse_psi, dense, atol=1e-12)

    def test_truncation_sparsifies(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING, truncate=1e-3)
        psi = cache.get(0.3)
        assert psi.nnz < self.GRID.n_cells**2

    def test_invalid_distance(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING)
        with pytest.raises(ValueError):
            cache.get(-0.1)
        with pytest.raises(ValueError):
            cache.get(float("nan"))

    def test_vectorized_keys_round_like_python(self):
        # one quantization pass, equal to int(round(d / quantum)) per
        # distance: exact half-quantum values round half to even on both
        # sides (0.5 -> 0, 1.5 -> 2, 2.5 -> 2)
        q = 2.0**-7
        cache = RangingPotentialCache(self.GRID, self.RANGING, quantum=q)
        gen = np.random.default_rng(3)
        d = np.concatenate(
            [(np.arange(40) + 0.5) * q, np.arange(40) * q, gen.random(200) * 1.5]
        )
        keys = cache._keys(d)
        assert [int(k) for k in keys] == [int(round(x / q)) for x in d.tolist()]
        assert [int(k) for k in keys[:3]] == [0, 2, 2]
        default = RangingPotentialCache(self.GRID, self.RANGING)
        halves = (np.arange(40) + 0.5) * default.quantum
        assert [int(k) for k in default._keys(halves)] == [
            int(round(x / default.quantum)) for x in halves.tolist()
        ]

    def test_get_many_shares_the_objects_of_get(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING)
        d = [0.2, 0.35, 0.2001, 0.2, 0.5]
        many = cache.get_many(d)
        assert len(many) == len(d)
        assert all(m is cache.get(x) for m, x in zip(many, d))
        assert many[0] is many[2] is many[3]
        assert cache.n_cached == 3
        assert cache.get_many([]) == []

    def test_get_many_names_the_first_bad_distance(self):
        cache = RangingPotentialCache(self.GRID, self.RANGING)
        with pytest.raises(ValueError, match="got nan"):
            cache.get_many([0.1, float("nan"), -0.5])
        with pytest.raises(ValueError, match="got -0.5"):
            cache.get_many([0.1, -0.5, float("inf")])
        assert cache.n_cached == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RangingPotentialCache(self.GRID, self.RANGING, truncate=1.0)
        with pytest.raises(ValueError):
            RangingPotentialCache(self.GRID, self.RANGING, quantum=0.0)


def _dense_kernel(cache, observed_distance):
    """Dense reference for a cache miss: ``csr_matrix`` of the truncated
    ``(K, K)`` potential evaluated on every cell pair."""
    dense = pairwise_ranging_potential(
        cache.grid.pairwise_center_distances(),
        cache._keys([observed_distance])[0] * cache.quantum,
        cache.ranging,
        cache.radio,
        blur_sigma=cache.blur_sigma,
    )
    dense[dense < cache.truncate] = 0.0
    return sparse.csr_matrix(dense)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


_CLASS_RANGINGS = {
    "gauss": GaussianRanging(0.02),
    "gauss-narrow": GaussianRanging(1e-4),
    "proportional": ProportionalGaussianRanging(0.1),
    "toa": TOARanging(0.02, mean_delay=0.01),
    "rssi": RSSIRanging(),
    "channel-rssi": ChannelRSSIRanging(inversion_exponent=2.5),
    "robust": RobustRanging(GaussianRanging(0.02)),
    "latent-nlos": LatentNLOSRanging(GaussianRanging(0.02)),
}
_CLASS_RADIOS = {
    "none": None,
    "disk": UnitDiskRadio(0.35),
    "qudg": QuasiUnitDiskRadio(0.35),
    "lognormal": LogNormalShadowingRadio(0.35),
    "doi": IrregularRadio(0.35, doi=0.2),
}
#: (grid, observed distances): two square grids and a non-square field
#: whose cells are wider than tall (more distinct distances); 3.0 lies
#: beyond every field.
_CLASS_GRIDS = [
    (Grid2D(12, 12, 1.0, 1.0), (0.0, 0.1, 0.35, 0.8, 1.5, 3.0)),
    (Grid2D(24, 24, 1.0, 1.0), (0.0, 0.35, 3.0)),
    (Grid2D(10, 16, 1.0, 0.6), (0.0, 0.1, 0.35, 0.8, 1.5, 3.0)),
]


class TestDistanceClassKernels:
    """A cache miss evaluates the potential once per distinct cell-centre
    distance and gathers it through the class index; the CSR it returns
    must equal ``csr_matrix`` of the truncated dense potential bit for
    bit, dtypes included."""

    @pytest.mark.parametrize("radio", list(_CLASS_RADIOS))
    @pytest.mark.parametrize("ranging", list(_CLASS_RANGINGS))
    def test_matches_dense_reference(self, ranging, radio):
        for grid, distances in _CLASS_GRIDS:
            for blur in (0.0, 0.02):
                cache = RangingPotentialCache(
                    grid,
                    _CLASS_RANGINGS[ranging],
                    _CLASS_RADIOS[radio],
                    blur_sigma=blur,
                )
                for d in distances:
                    _assert_same_csr(cache.get(d), _dense_kernel(cache, d))

    def test_p_detect_fallback(self):
        # a narrow range far beyond the radio range: likelihood × p_detect
        # is zero on every pair, so the kernel falls back to p_detect
        grid = Grid2D(12, 12, 1.0, 1.0)
        ranging, radio = GaussianRanging(1e-4), UnitDiskRadio(0.35)
        D = grid.pairwise_center_distances()
        pd = radio.p_detect(D)
        for blur in (0.0, 0.02):
            cache = RangingPotentialCache(grid, ranging, radio, blur_sigma=blur)
            d = cache._keys([3.0])[0] * cache.quantum
            assert (_blurred_likelihood(D, d, ranging, blur) * pd).max() <= 0
            got = cache.get(3.0)
            _assert_same_csr(got, _dense_kernel(cache, 3.0))
            assert np.array_equal(got.toarray(), pd / pd.max())

    def test_non_square_field_has_more_classes(self):
        square = RangingPotentialCache(Grid2D(12, 12, 1.0, 1.0), GaussianRanging(0.02))
        wide = RangingPotentialCache(Grid2D(10, 16, 1.0, 0.6), GaussianRanging(0.02))
        for cache in (square, wide):
            cache.get(0.2)
        assert wide._classes[0].size > square._classes[0].size

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.floats(0.0, 3.0, allow_nan=False),
        ranging=st.sampled_from(list(_CLASS_RANGINGS)),
        radio=st.sampled_from(list(_CLASS_RADIOS)),
        blur=st.sampled_from([0.0, 0.02]),
    )
    def test_observed_distance_sweep(self, d, ranging, radio, blur):
        cache = RangingPotentialCache(
            Grid2D(10, 16, 1.0, 0.6),
            _CLASS_RANGINGS[ranging],
            _CLASS_RADIOS[radio],
            blur_sigma=blur,
        )
        try:
            want = _dense_kernel(cache, d)
        except ValueError:
            with pytest.raises(ValueError):
                cache.get(d)
            return
        _assert_same_csr(cache.get(d), want)


@pytest.mark.perf
class TestDistanceClassRouting:
    """A miss must evaluate the likelihood on the distinct distances only,
    from one class table built once per cache."""

    def test_likelihood_sees_classes_not_cell_pairs(self, monkeypatch):
        grid = Grid2D(24, 24, 1.0, 1.0)
        K = grid.n_cells
        n_classes = np.unique(grid.pairwise_center_distances()).size
        shapes = []
        original = GaussianRanging.log_likelihood

        def counted(self, observed, distances):
            shapes.append(np.shape(distances))
            return original(self, observed, distances)

        monkeypatch.setattr(GaussianRanging, "log_likelihood", counted)
        cache = RangingPotentialCache(
            grid, GaussianRanging(0.02), UnitDiskRadio(0.35), blur_sigma=0.02
        )
        cache.get(0.2)
        table = cache._classes
        values, inverse = table
        assert values.size == n_classes
        assert inverse.shape == (K, K) and inverse.dtype == np.uint16
        cache.get(0.4)
        assert cache._classes is table
        assert cache._classes[0] is values and cache._classes[1] is inverse
        assert len(shapes) == 6  # 3 Gauss–Hermite nodes per miss
        assert all(np.prod(s) <= n_classes for s in shapes)
        assert (K, K) not in shapes
