"""Unit and property tests for repro.priors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid2D
from repro.network.deployment import CShapeDeployment, GaussianClusterDeployment
from repro.priors import (
    DeploymentPrior,
    GaussianPrior,
    GridBeliefPrior,
    MixturePrior,
    PerNodePrior,
    PositionPrior,
    ProductPrior,
    RegionPrior,
    UniformPrior,
    combine,
    diffusion_kernel,
)

GRID = Grid2D(15, 15)


class TestUniformPrior:
    def test_flat_weights(self):
        w = UniformPrior().grid_weights(0, GRID)
        np.testing.assert_allclose(w, 1.0 / GRID.n_cells)

    def test_sum_to_one(self):
        assert UniformPrior().grid_weights(3, GRID).sum() == pytest.approx(1.0)

    def test_outside_field(self):
        ld = UniformPrior().log_density(0, np.array([[2.0, 0.5]]))
        assert ld[0] == -np.inf

    @pytest.mark.parametrize(
        "grid", [Grid2D(12), Grid2D(24), Grid2D(10, 6, width=2.0, height=1.0)]
    )
    @pytest.mark.parametrize("field", [(1.0, 1.0), (0.5, 0.8), (2.0, 1.0)])
    def test_grid_weight_rows_match_per_node_loop(self, grid, field):
        prior = UniformPrior(*field)
        for nodes in ([], [3], [0, 4, 7, 2], list(range(19))):
            rows = prior.grid_weight_rows(nodes, grid)
            ref = PositionPrior.grid_weight_rows(prior, nodes, grid)
            assert rows.shape == (len(nodes), grid.n_cells)
            np.testing.assert_array_equal(rows, ref)
        rows = prior.grid_weight_rows([1, 2], grid)
        rows[0, 0] = -1.0  # a fresh array, not views of one shared row
        assert rows[1, 0] != -1.0


class TestGaussianPrior:
    def test_peak_at_mean(self):
        prior = GaussianPrior([0.5, 0.5], 0.1)
        w = prior.grid_weights(0, GRID)
        peak = GRID.centers[np.argmax(w)]
        np.testing.assert_allclose(peak, [0.5, 0.5], atol=GRID.cell_diagonal)

    def test_sigma_controls_spread(self):
        tight = GaussianPrior([0.5, 0.5], 0.05).grid_weights(0, GRID)
        wide = GaussianPrior([0.5, 0.5], 0.3).grid_weights(0, GRID)
        assert tight.max() > wide.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPrior([0.5], 0.1)
        with pytest.raises(ValueError):
            GaussianPrior([0.5, 0.5], 0.0)

    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_expectation_tracks_mean(self, mx, my):
        prior = GaussianPrior([mx, my], 0.05)
        w = prior.grid_weights(0, GRID)
        np.testing.assert_allclose(GRID.expectation(w), [mx, my], atol=0.05)


class TestMixturePrior:
    CENTERS = np.array([[0.2, 0.2], [0.8, 0.8]])

    def test_bimodal(self):
        prior = MixturePrior(self.CENTERS, 0.05)
        ld = prior.log_density(0, np.array([[0.2, 0.2], [0.8, 0.8], [0.5, 0.5]]))
        assert ld[0] > ld[2] and ld[1] > ld[2]

    def test_weights_shift_mass(self):
        prior = MixturePrior(self.CENTERS, 0.05, weights=[0.9, 0.1])
        ld = prior.log_density(0, self.CENTERS)
        assert ld[0] > ld[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            MixturePrior(np.zeros((0, 2)), 0.1)
        with pytest.raises(ValueError):
            MixturePrior(self.CENTERS, 0.1, weights=[1.0])


class TestDeploymentPrior:
    def test_matches_model_density(self):
        dep = GaussianClusterDeployment(np.array([[0.3, 0.3]]), sigma=0.1)
        prior = DeploymentPrior(dep)
        pts = np.array([[0.3, 0.3], [0.9, 0.9]])
        np.testing.assert_allclose(prior.log_density(5, pts), dep.log_density(pts))

    def test_type_check(self):
        with pytest.raises(TypeError):
            DeploymentPrior("uniform")


class TestPerNodePrior:
    INTENDED = np.array([[0.25, 0.25], [0.75, 0.75]])

    def test_node_specific(self):
        prior = PerNodePrior(self.INTENDED, sigma=0.05)
        w0 = prior.grid_weights(0, GRID)
        w1 = prior.grid_weights(1, GRID)
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w0)], [0.25, 0.25], atol=GRID.cell_diagonal
        )
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w1)], [0.75, 0.75], atol=GRID.cell_diagonal
        )

    def test_offset_shifts_prior(self):
        prior = PerNodePrior(self.INTENDED, sigma=0.05, offset=(0.2, 0.0))
        w0 = prior.grid_weights(0, GRID)
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w0)], [0.45, 0.25], atol=GRID.cell_diagonal
        )

    def test_mapping_input(self):
        prior = PerNodePrior({7: (0.5, 0.5)}, sigma=0.1)
        w = prior.grid_weights(7, GRID)
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w)], [0.5, 0.5], atol=GRID.cell_diagonal
        )

    def test_missing_node_flat(self):
        prior = PerNodePrior({0: (0.5, 0.5)}, sigma=0.1)
        w = prior.grid_weights(99, GRID)
        np.testing.assert_allclose(w, 1.0 / GRID.n_cells)

    def test_missing_node_fallback(self):
        prior = PerNodePrior(
            {0: (0.5, 0.5)}, sigma=0.1, fallback=GaussianPrior([0.1, 0.1], 0.05)
        )
        w = prior.grid_weights(99, GRID)
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w)], [0.1, 0.1], atol=GRID.cell_diagonal
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PerNodePrior(np.zeros((3, 3)), sigma=0.1)
        with pytest.raises(ValueError):
            PerNodePrior(self.INTENDED, sigma=0.1, offset=(1.0,))


class TestRegionPrior:
    def test_cshape_support(self):
        shape = CShapeDeployment()
        prior = RegionPrior(shape.contains)
        ld = prior.log_density(0, np.array([[0.1, 0.5], [0.9, 0.5]]))
        assert ld[0] == 0.0 and ld[1] == -np.inf

    def test_grid_weights_area_fraction(self):
        # Cell weight is the area fraction inside the region: cells fully
        # in the notch get zero, boundary cells get partial weight, and
        # interior cells share the rest uniformly.
        shape = CShapeDeployment()
        prior = RegionPrior(shape.contains, subsamples=3)
        w = prior.grid_weights(0, GRID)
        assert w.sum() == pytest.approx(1.0)
        # a cell deep inside the notch: all subsamples outside the support
        deep_notch = GRID.cell_of(np.array([[0.85, 0.5]]))[0]
        assert w[deep_notch] == 0.0
        # a cell deep inside the C has full weight
        interior = GRID.cell_of(np.array([[0.1, 0.5]]))[0]
        assert w[interior] == w.max()
        # boundary cells (straddling the notch edge) may carry partial mass
        assert ((w > 0) & (w < w.max())).any()

    def test_region_prior_subsample_validation(self):
        with pytest.raises(ValueError):
            RegionPrior(lambda pts: pts[:, 0] < 0.5, subsamples=0)

    def test_type_check(self):
        with pytest.raises(TypeError):
            RegionPrior("not callable")


class TestComposition:
    def test_product_adds_log_densities(self):
        a = GaussianPrior([0.3, 0.3], 0.1)
        b = GaussianPrior([0.7, 0.7], 0.1)
        p = ProductPrior([a, b])
        pts = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(
            p.log_density(0, pts), a.log_density(0, pts) + b.log_density(0, pts)
        )

    def test_product_peak_between(self):
        p = combine(GaussianPrior([0.3, 0.5], 0.1), GaussianPrior([0.7, 0.5], 0.1))
        w = p.grid_weights(0, GRID)
        np.testing.assert_allclose(
            GRID.centers[np.argmax(w)], [0.5, 0.5], atol=GRID.cell_diagonal
        )

    def test_combine_single_passthrough(self):
        a = UniformPrior()
        assert combine(a) is a

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductPrior([])
        with pytest.raises(TypeError):
            ProductPrior([UniformPrior(), "x"])

    def test_empty_support_raises(self):
        p = combine(
            RegionPrior(lambda pts: pts[:, 0] < 0.1),
            RegionPrior(lambda pts: pts[:, 0] > 0.9),
        )
        with pytest.raises(ValueError):
            p.grid_weights(0, GRID)


class TestSampling:
    def test_samples_follow_prior(self):
        prior = GaussianPrior([0.3, 0.7], 0.05)
        pts = prior.sample(0, 800, GRID, rng=0)
        assert pts.shape == (800, 2)
        np.testing.assert_allclose(pts.mean(axis=0), [0.3, 0.7], atol=0.03)

    def test_reproducible(self):
        prior = UniformPrior()
        np.testing.assert_array_equal(
            prior.sample(0, 50, GRID, rng=4), prior.sample(0, 50, GRID, rng=4)
        )


# ---------------------------------------------------------------------- #
# GridBeliefPrior as one (N, K) block
# ---------------------------------------------------------------------- #
class _PerVectorBeliefPrior(PositionPrior):
    """Per-vector reference for :class:`GridBeliefPrior`: each belief is
    normalized, diffused, re-normalized and floored on its own, and the
    solver reads it through the default per-node ``grid_weight_rows``."""

    def __init__(self, grid, beliefs, diffusion_sigma=0.0, floor=1e-6):
        self.grid = grid
        self.diffusion_sigma = float(diffusion_sigma)
        self.floor = float(floor)
        kernel = diffusion_kernel(grid, diffusion_sigma) if diffusion_sigma > 0 else None
        self.weights = {}
        for node, b in beliefs.items():
            w = np.asarray(b, dtype=np.float64)
            w = w / w.sum()
            if kernel is not None:
                w = kernel @ w
                w = w / w.sum()
            if floor > 0:
                w = (1 - floor) * w + floor * (1.0 / grid.n_cells)
            self.weights[int(node)] = w

    def log_density(self, node, points):
        w = self.weights.get(int(node))
        if w is None:
            return np.zeros(len(points))
        return np.log(np.maximum(w[self.grid.cell_of(points)], 1e-300))

    def grid_weights(self, node, grid):
        w = self.weights.get(int(node))
        if w is None:
            return np.full(grid.n_cells, 1.0 / grid.n_cells)
        same = (grid.nx, grid.ny, grid.width, grid.height)
        if same == (self.grid.nx, self.grid.ny, self.grid.width, self.grid.height):
            return w
        out = w[self.grid.cell_of(grid.centers)]
        return out / out.sum()


def _random_beliefs(grid, nodes, seed):
    gen = np.random.default_rng(seed)
    out = {}
    for node in nodes:
        w = gen.random(grid.n_cells) ** 4  # spiky, with near-zero cells
        w[gen.integers(grid.n_cells, size=3)] = 0.0  # exact zeros too
        out[node] = w
    return out


class TestGridBeliefPriorBlock:
    @pytest.mark.parametrize("grid", [Grid2D(12, 12), Grid2D(5, 7, 1.0, 1.4)])
    @pytest.mark.parametrize("sigma", [0.0, 0.07])
    @pytest.mark.parametrize("floor", [0.0, 1e-6, 1e-3])
    def test_block_equals_per_vector_reference(self, grid, sigma, floor):
        beliefs = _random_beliefs(grid, [4, 0, 9, 2, 7], seed=3)
        prior = GridBeliefPrior(grid, beliefs, diffusion_sigma=sigma, floor=floor)
        ref = _PerVectorBeliefPrior(grid, beliefs, diffusion_sigma=sigma, floor=floor)
        assert prior.block.shape == (5, grid.n_cells)
        assert prior.block.flags.c_contiguous
        np.testing.assert_array_equal(
            prior.block, np.stack([ref.weights[n] for n in beliefs])
        )
        assert list(prior.weights) == list(beliefs)
        for node in beliefs:
            np.testing.assert_array_equal(prior.weights[node], ref.weights[node])
            np.testing.assert_array_equal(
                prior.grid_weights(node, grid), ref.grid_weights(node, grid)
            )

    @pytest.mark.parametrize("sigma", [0.0, 0.07])
    def test_rows_gather_and_missing_nodes_are_uniform(self, sigma):
        grid = Grid2D(12, 12)
        beliefs = _random_beliefs(grid, [1, 3, 5], seed=8)
        prior = GridBeliefPrior(grid, beliefs, diffusion_sigma=sigma)
        ref = _PerVectorBeliefPrior(grid, beliefs, diffusion_sigma=sigma)
        nodes = np.array([5, 0, 3, 4, 1])  # 0 and 4 have no row
        np.testing.assert_array_equal(prior.row_index(nodes), [2, -1, 1, -1, 0])
        rows = prior.grid_weight_rows(nodes, grid)
        np.testing.assert_array_equal(rows, ref.grid_weight_rows(nodes, grid))
        np.testing.assert_array_equal(rows[1], np.full(grid.n_cells, 1.0 / grid.n_cells))
        # an empty prior gathers all-uniform rows
        empty = GridBeliefPrior(grid, {})
        assert empty.block.shape == (0, grid.n_cells)
        np.testing.assert_array_equal(
            empty.grid_weight_rows(nodes, grid),
            np.full((5, grid.n_cells), 1.0 / grid.n_cells),
        )

    def test_cross_resolution_matches_reference(self):
        coarse, fine = Grid2D(8, 8), Grid2D(16, 16)
        beliefs = _random_beliefs(coarse, [0, 2], seed=5)
        prior = GridBeliefPrior(coarse, beliefs, diffusion_sigma=0.1, floor=1e-4)
        ref = _PerVectorBeliefPrior(coarse, beliefs, diffusion_sigma=0.1, floor=1e-4)
        nodes = [2, 1, 0]
        for node in nodes:
            np.testing.assert_array_equal(
                prior.grid_weights(node, fine), ref.grid_weights(node, fine)
            )
        np.testing.assert_array_equal(
            prior.grid_weight_rows(nodes, fine), ref.grid_weight_rows(nodes, fine)
        )

    def test_same_shape_other_extent_takes_cross_resolution_rows(self):
        # a 4x4 prior on the unit field read on a 4x4 grid over 2x2: the
        # cells have the same count but not the same places, so the rows
        # are the prior evaluated at the target cell centres, not its
        # block rows
        unit, wide = Grid2D(4, 4), Grid2D(4, 4, 2.0, 2.0)
        beliefs = _random_beliefs(unit, [0, 2], seed=6)
        prior = GridBeliefPrior(unit, beliefs, diffusion_sigma=0.1, floor=1e-4)
        ref = _PerVectorBeliefPrior(unit, beliefs, diffusion_sigma=0.1, floor=1e-4)
        nodes = [2, 1, 0]
        rows = prior.grid_weight_rows(nodes, wide)
        np.testing.assert_array_equal(rows, ref.grid_weight_rows(nodes, wide))
        cells = unit.cell_of(wide.centers)
        for row, node in zip(rows[[0, 2]], [2, 0]):
            want = prior.weights[node][cells]
            np.testing.assert_array_equal(row, want / want.sum())
            np.testing.assert_array_equal(prior.grid_weights(node, wide), row)
        assert not np.array_equal(rows[0], prior.weights[2])

    def test_rediffusing_a_prior_uses_its_block(self):
        # what a coasting stream step does: the prior's own rows go back
        # through the diffusion, bit-identical to a dict of copies
        grid = Grid2D(12, 12)
        first = GridBeliefPrior(grid, _random_beliefs(grid, [6, 2], seed=1), 0.05)
        again = GridBeliefPrior(grid, first.weights, diffusion_sigma=0.05)
        copies = {n: np.array(w) for n, w in first.weights.items()}
        np.testing.assert_array_equal(
            again.block, GridBeliefPrior(grid, copies, diffusion_sigma=0.05).block
        )

    def test_weights_are_read_only_row_views(self):
        grid = Grid2D(6, 6)
        prior = GridBeliefPrior(grid, _random_beliefs(grid, [1, 4], seed=0))
        row = prior.weights[4]
        assert np.shares_memory(row, prior.block)
        assert len(prior.weights) == 2 and 4 in prior.weights and 2 not in prior.weights
        with pytest.raises(ValueError):
            row[0] = 1.0
        with pytest.raises(TypeError):
            prior.weights[4] = row  # type: ignore[index]

    def test_shape_error_names_the_node(self):
        grid = Grid2D(6, 6)
        good = np.ones(grid.n_cells)
        with pytest.raises(ValueError, match="node 3 has shape"):
            GridBeliefPrior(grid, {1: good, 3: np.ones(5)})
        with pytest.raises(ValueError, match="node 3 has shape"):
            GridBeliefPrior(grid, {1: good, 3: np.ones((grid.n_cells, 1))})
        with pytest.raises(ValueError, match="node 1 has shape"):
            GridBeliefPrior(grid, {1: np.ones(5), 3: np.ones(5)})

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda w: np.where(np.arange(w.size) == 3, np.nan, w),
            lambda w: np.where(np.arange(w.size) == 3, np.inf, w),
            lambda w: np.where(np.arange(w.size) == 3, -np.inf, w),
            lambda w: np.where(np.arange(w.size) == 3, -0.5, w),
            lambda w: np.zeros_like(w),
        ],
        ids=["nan", "inf", "neg-inf", "negative", "zero-mass"],
    )
    def test_corrupt_belief_is_rejected_naming_the_first_bad_node(self, corrupt):
        grid = Grid2D(6, 6)
        w = np.full(grid.n_cells, 1.0)
        beliefs = {0: w, 7: corrupt(w), 9: corrupt(w)}
        with pytest.raises(ValueError, match="node 7 is not a probability vector"):
            GridBeliefPrior(grid, beliefs, diffusion_sigma=0.1)


class TestStackedDiffusion:
    """The diffusion runs every row's ``kernel @ w`` gemv in one
    ``np.matmul`` call; it must stay byte-equal to the per-row ``np.dot``
    loop it replaced, a single-row prior included."""

    @staticmethod
    def _dot_loop(grid, beliefs, sigma, floor):
        kernel = diffusion_kernel(grid, sigma)
        w = np.array(list(beliefs.values()), dtype=np.float64)
        w = w / w.sum(axis=1, keepdims=True)
        diffused = np.empty_like(w)
        for i in range(len(w)):
            np.dot(kernel, w[i], out=diffused[i])
        diffused /= diffused.sum(axis=1, keepdims=True)
        diffused *= 1 - floor
        diffused += floor * (1.0 / grid.n_cells)
        return diffused

    @pytest.mark.parametrize("side", [8, 10, 12, 24])  # K = 64, 100, 144, 576
    @pytest.mark.parametrize("sigma", [0.01, 0.025, 0.1])
    def test_byte_equal_to_per_row_dot(self, side, sigma):
        grid = Grid2D(side, side)
        for n_rows in (1, 2, 7, 33, 260):
            beliefs = _random_beliefs(grid, range(n_rows), seed=side + n_rows)
            prior = GridBeliefPrior(grid, beliefs, diffusion_sigma=sigma)
            expected = self._dot_loop(grid, beliefs, sigma, prior.floor)
            assert prior.block.tobytes() == expected.tobytes(), n_rows


class TestBeliefPriorConsumersUnchanged:
    """Tracking and multi-resolution output with the block prior equals
    the output with the per-vector reference prior swapped in."""

    def _ms(self, seed):
        from repro.measurement import GaussianRanging, observe
        from repro.network import NetworkConfig, UnitDiskRadio, generate_network

        net = generate_network(
            NetworkConfig(n_nodes=30, anchor_ratio=0.25, radio=UnitDiskRadio(0.35)),
            rng=seed,
        )
        return observe(net, GaussianRanging(0.03), np.random.default_rng(seed + 1))

    def test_multires(self, monkeypatch):
        import repro.core.multires as multires

        ms = self._ms(4)
        block = multires.MultiResolutionLocalizer(levels=(6, 12)).localize(ms, 0)
        monkeypatch.setattr(multires, "GridBeliefPrior", _PerVectorBeliefPrior)
        ref = multires.MultiResolutionLocalizer(levels=(6, 12)).localize(ms, 0)
        np.testing.assert_array_equal(block.estimates, ref.estimates)

    def test_sequential_tracker(self, monkeypatch):
        import repro.mobility.tracking as tracking
        from repro.core.bnloc import GridBPConfig
        from repro.measurement import GaussianRanging
        from repro.network import UnitDiskRadio

        ms = self._ms(6)

        def run():
            tracker = tracking.SequentialGridTracker(
                UnitDiskRadio(0.35), GaussianRanging(0.03), motion_sigma=0.04,
                config=GridBPConfig(grid_size=10, max_iterations=4),
            )
            prior, out = None, []
            for t in range(3):
                result, prior = tracker.step(ms, prior, t)
                out.append(result.estimates)
            return np.stack(out), np.stack(list(prior.weights.values()))

        block = run()
        monkeypatch.setattr(tracking, "GridBeliefPrior", _PerVectorBeliefPrior)
        ref = run()
        np.testing.assert_array_equal(block[0], ref[0])
        np.testing.assert_array_equal(block[1], ref[1])
