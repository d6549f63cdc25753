"""Integration-grade tests for the core localizers (grid BP, NBP, pipeline).

These run small fixed-seed networks end-to-end and assert the statistical
behaviours the method must exhibit: beats-uniform-guessing accuracy,
pre-knowledge improving accuracy, negative evidence helping, convergence,
and the Localizer interface contract.
"""

import dataclasses as dc

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse import csr_matrix

from repro.core import (
    CooperativeLocalizer,
    GridBPConfig,
    GridBPLocalizer,
    NBPConfig,
    NBPLocalizer,
)
from repro.core.bnloc import _anchor_hop_block
from repro.core.grid import Grid2D
from repro.core.potentials import _blurred_likelihood
from repro.core.result import LocalizationResult
from repro.measurement import (
    BearingModel,
    ConnectivityOnly,
    GaussianRanging,
    RSSIRanging,
    observe,
)
from repro.network import (
    LogNormalShadowingRadio,
    NetworkConfig,
    QuasiUnitDiskRadio,
    UnitDiskRadio,
    generate_network,
)
from repro.priors import GaussianPrior, PerNodePrior, UniformPrior


@pytest.fixture(scope="module")
def net():
    return generate_network(
        NetworkConfig(
            n_nodes=60,
            anchor_ratio=0.15,
            radio=UnitDiskRadio(0.25),
            require_connected=True,
        ),
        rng=7,
    )


@pytest.fixture(scope="module")
def measurements(net):
    return observe(net, GaussianRanging(0.02), rng=8)


SMALL_CFG = GridBPConfig(grid_size=15, max_iterations=10)


def mean_unknown_error(result, net):
    err = result.errors(net.positions)
    return float(np.nanmean(err[~net.anchor_mask]))


class TestGridBPLocalizer:
    def test_localizes_all_unknowns(self, net, measurements):
        result = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        assert result.localized_mask.all()
        assert np.isfinite(result.estimates).all()

    def test_accuracy_beats_field_center_guess(self, net, measurements):
        result = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        err = mean_unknown_error(result, net)
        center_guess = np.linalg.norm(
            net.positions[~net.anchor_mask] - [0.5, 0.5], axis=1
        ).mean()
        assert err < 0.6 * center_guess

    def test_anchor_rows_exact(self, net, measurements):
        result = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        np.testing.assert_allclose(
            result.estimates[net.anchor_mask], net.positions[net.anchor_mask]
        )

    def test_pre_knowledge_improves_accuracy(self, net, measurements):
        base = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        prior = PerNodePrior(net.positions, sigma=0.08)
        pk = GridBPLocalizer(prior=prior, config=SMALL_CFG).localize(measurements)
        assert mean_unknown_error(pk, net) < mean_unknown_error(base, net)

    def test_deterministic(self, measurements):
        a = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        b = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_connectivity_only_mode(self, net):
        ms = observe(net, ConnectivityOnly(), rng=1)
        result = GridBPLocalizer(config=SMALL_CFG).localize(ms)
        assert result.localized_mask.all()
        # range-free is coarser than ranged but must beat random placement
        err = mean_unknown_error(result, net)
        assert err < 0.3

    def test_ranging_beats_connectivity_only(self, net, measurements):
        ranged = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        ms_conn = observe(net, ConnectivityOnly(), rng=1)
        conn = GridBPLocalizer(config=SMALL_CFG).localize(ms_conn)
        assert mean_unknown_error(ranged, net) < mean_unknown_error(conn, net)

    def test_negative_evidence_helps_range_free(self, net):
        ms = observe(net, ConnectivityOnly(), rng=1)
        cfg_on = GridBPConfig(grid_size=15, max_iterations=10, use_negative_evidence=True)
        cfg_off = GridBPConfig(grid_size=15, max_iterations=10, use_negative_evidence=False)
        on = GridBPLocalizer(config=cfg_on).localize(ms)
        off = GridBPLocalizer(config=cfg_off).localize(ms)
        assert mean_unknown_error(on, net) <= mean_unknown_error(off, net) + 0.01

    def test_trace_recorded(self, measurements):
        cfg = GridBPConfig(grid_size=15, max_iterations=6, record_trace=True, tol=1e-12)
        result = GridBPLocalizer(config=cfg).localize(measurements)
        # trace[0] is the unary-only (iteration 0) snapshot
        assert len(result.trace) == result.n_iterations + 1
        assert result.trace[0].shape == result.estimates.shape

    def test_convergence_trace_improves(self, net, measurements):
        cfg = GridBPConfig(grid_size=15, max_iterations=10, record_trace=True, tol=1e-12)
        result = GridBPLocalizer(config=cfg).localize(measurements)
        unknown = ~net.anchor_mask
        # Cooperation must improve on the unary-only (iteration 0) estimate.
        first = np.linalg.norm(
            result.trace[0][unknown] - net.positions[unknown], axis=1
        ).mean()
        last = np.linalg.norm(
            result.trace[-1][unknown] - net.positions[unknown], axis=1
        ).mean()
        assert last < first

    def test_message_accounting(self, measurements):
        result = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        assert result.messages_sent > 0
        # Anchor broadcasts carry the anchor's position (2 float64);
        # unknown-unknown messages carry a K-vector of float64.
        ms = measurements
        anchor_msgs = sum(
            1
            for i, j in ms.edges()
            if bool(ms.anchor_mask[i]) != bool(ms.anchor_mask[j])
        )
        uu_msgs = result.messages_sent - anchor_msgs
        assert uu_msgs > 0
        assert result.bytes_sent == anchor_msgs * 2 * 8 + uu_msgs * 15 * 15 * 8

    def test_map_estimator_on_cell_centers(self, measurements):
        cfg = GridBPConfig(grid_size=15, max_iterations=6, estimator="map")
        result = GridBPLocalizer(config=cfg).localize(measurements)
        grid = result.extras["grid"]
        unknowns = measurements.unknown_ids
        est = result.estimates[unknowns]
        cells = grid.cell_of(est)
        np.testing.assert_allclose(grid.centers[cells], est, atol=1e-9)

    def test_beliefs_are_distributions(self, measurements):
        result = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        for b in result.extras["beliefs"].values():
            assert b.shape == (15 * 15,)
            assert b.sum() == pytest.approx(1.0)
            assert (b >= 0).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GridBPConfig(grid_size=1)
        with pytest.raises(ValueError):
            GridBPConfig(max_iterations=0)
        with pytest.raises(ValueError):
            GridBPConfig(damping=1.0)
        with pytest.raises(ValueError):
            GridBPConfig(estimator="median")

    def test_zero_support_prior_raises(self, measurements):
        # a prior whose support misses the entire field is a modelling error
        from repro.priors import RegionPrior

        prior = RegionPrior(lambda pts: pts[:, 0] > 5.0)
        with pytest.raises(ValueError):
            GridBPLocalizer(prior=prior, config=SMALL_CFG).localize(measurements)

    def test_badly_wrong_prior_degrades_gracefully(self, net, measurements):
        # A confident but wrong prior pulls estimates toward its mean; the
        # result is worse than no prior, yet still finite and well-formed.
        prior = GaussianPrior([0.0, 0.0], 0.05)
        wrong = GridBPLocalizer(prior=prior, config=SMALL_CFG).localize(measurements)
        base = GridBPLocalizer(config=SMALL_CFG).localize(measurements)
        assert np.isfinite(wrong.estimates).all()
        assert mean_unknown_error(wrong, net) > mean_unknown_error(base, net)


def _builder_ms(seed=3, radio=None, ranging="gauss", bearings=False):
    net = generate_network(
        NetworkConfig(
            n_nodes=22,
            anchor_ratio=0.25,
            radio=radio if radio is not None else UnitDiskRadio(0.33),
            require_connected=True,
        ),
        rng=seed,
    )
    model = {"gauss": GaussianRanging(0.02), "rssi": RSSIRanging(), None: None}
    return observe(
        net,
        model[ranging],
        rng=seed + 1,
        bearings=BearingModel(0.1) if bearings else None,
    )


def _isolate(ms, node):
    """*ms* with every link of *node* removed (it then hears nobody)."""
    adj = ms.adjacency.copy()
    adj[node, :] = adj[:, node] = False
    obs = ms.observed_distances.copy()
    obs[node, :] = obs[:, node] = np.nan
    return dc.replace(ms, adjacency=adj, observed_distances=obs)


def _scipy_hops(adjacency, sources):
    return scipy.sparse.csgraph.shortest_path(
        csr_matrix(np.asarray(adjacency, dtype=np.int8)),
        method="D",
        unweighted=True,
        directed=False,
    )[:, sources]


def _builders(ms, radio=None, prior=None, **overrides):
    """(whole-array builder, per-(unknown, anchor) reference, their args)."""
    cfg = GridBPConfig(grid_size=9, **overrides)
    loc = GridBPLocalizer(prior=prior, radio=radio, config=cfg)
    args = (
        ms,
        Grid2D(cfg.grid_size, cfg.grid_size, ms.width, ms.height),
        prior if prior is not None else UniformPrior(ms.width, ms.height),
        radio if radio is not None else UnitDiskRadio(ms.radio_range),
        ms.unknown_ids,
    )
    return loc._node_potentials, loc._node_potentials_baseline, args


def _both_builders(ms, radio=None, prior=None, **overrides):
    """(whole-array builder, reference) log_phi for the same problem."""
    fast, ref, args = _builders(ms, radio, prior, **overrides)
    return fast(*args), ref(*args)


class TestNodePotentialBuilder:
    """``_node_potentials`` (one ranging slab, one hop BFS, stacked anchor
    fields) must equal ``_node_potentials_baseline`` bit for bit."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"cell_blur_fraction": 0.0},
            {"use_connectivity_in_ranging": False},
            {"use_negative_evidence": False},
            {"use_hop_bounds": False},
        ],
        ids=["blur", "no-blur", "no-conn", "no-negative", "no-hops"],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_ranging(self, overrides, seed):
        fast, ref = _both_builders(_builder_ms(seed), **overrides)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize(
        "kind", ["range-free", "bearings", "rssi", "gaussian-prior"]
    )
    def test_modalities(self, kind):
        ms = _builder_ms(
            5,
            ranging={"range-free": None, "rssi": "rssi"}.get(kind, "gauss"),
            bearings=kind == "bearings",
        )
        prior = GaussianPrior([0.5, 0.5], 0.3) if kind == "gaussian-prior" else None
        fast, ref = _both_builders(ms, prior=prior)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize(
        "radio",
        [QuasiUnitDiskRadio(0.36, alpha=0.6), LogNormalShadowingRadio(0.3)],
        ids=["qudg", "lognormal"],
    )
    @pytest.mark.parametrize("ranging", ["gauss", None], ids=["ranging", "range-free"])
    def test_radios(self, radio, ranging):
        ms = _builder_ms(6, radio=radio, ranging=ranging)
        fast, ref = _both_builders(ms, radio=radio)
        assert np.array_equal(fast, ref)

    def test_gross_outlier_link_takes_p_detect_row(self):
        ms = _builder_ms(7)
        u, a = next(
            (int(u), int(a))
            for u in ms.unknown_ids
            for a in ms.anchor_ids
            if ms.adjacency[u, a]
        )
        obs = ms.observed_distances.copy()
        obs[u, a] = obs[a, u] = 40.0  # far outside the unit field
        ms = dc.replace(ms, observed_distances=obs)
        grid = Grid2D(9, 9, ms.width, ms.height)
        d = grid.distances_to_point(ms.anchor_positions_full[a])
        vals = _blurred_likelihood(
            d, 40.0, ms.ranging, GridBPConfig().cell_blur_fraction * grid.cell_diagonal
        )
        # precondition: the masked likelihood is dead, the fallback runs
        assert (vals * UnitDiskRadio(ms.radio_range).p_detect(d)).max() <= 0
        fast, ref = _both_builders(ms)
        assert np.array_equal(fast, ref)

    def test_unknown_hearing_no_anchor(self):
        ms = _builder_ms(8)
        hops = _scipy_hops(ms.adjacency, ms.anchor_ids)
        deaf = [
            u
            for u in ms.unknown_ids
            if not ms.adjacency[u, ms.anchor_ids].any()
            and np.isfinite(hops[u]).any()
        ]
        assert deaf  # precondition: multihop-only unknowns exist
        fast, ref = _both_builders(ms)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("ranging", ["gauss", None], ids=["ranging", "range-free"])
    def test_disconnected_component(self, ranging):
        ms = _builder_ms(9, ranging=ranging)
        node = int(ms.unknown_ids[0])
        ms = _isolate(ms, node)
        hops = _scipy_hops(ms.adjacency, ms.anchor_ids)
        assert np.isinf(hops[node]).all() and np.isfinite(hops).any()
        fast, ref = _both_builders(ms)
        assert np.array_equal(fast, ref)

    def test_negative_evidence_covering_anchor_raises(self):
        # A silent anchor whose radio covers the whole grid is the
        # baseline's model-misspecification error, on both builders.
        ms = _builder_ms(10)
        fast, ref, args = _builders(ms, radio=UnitDiskRadio(5.0))
        for builder in (fast, ref):
            with pytest.raises(ValueError, match="negative evidence"):
                builder(*args)


def _one_network_hops(adjacency, anchor_ids):
    """The frontier BFS over a one-network stack: ``(n, n_anchors)``."""
    anchor_ids = np.asarray(anchor_ids, dtype=np.intp)
    return _anchor_hop_block(
        adjacency[None], anchor_ids[None], np.ones((1, len(anchor_ids)), dtype=bool)
    )[0]


class TestAnchorHops:
    """The frontier BFS equals scipy's all-pairs ``shortest_path`` on the
    anchor columns, inf for unreachable pairs included."""

    def test_random_graphs(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            n = int(rng.integers(2, 40))
            adj = rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.35)
            if trial % 3:
                adj = adj | adj.T  # also exercise one-sided links
            if trial % 5 == 0:
                adj[0, :] = adj[:, 0] = False  # an isolated node
            sources = np.sort(
                rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            )
            got = _one_network_hops(adj, sources)
            want = _scipy_hops(adj, sources)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_isolated_anchor_and_components(self):
        adj = np.zeros((6, 6), dtype=bool)
        for i, j in [(1, 2), (2, 3), (4, 5)]:
            adj[i, j] = adj[j, i] = True
        got = _one_network_hops(adj, np.array([0, 1, 5]))
        assert np.array_equal(got, _scipy_hops(adj, [0, 1, 5]))
        assert np.isinf(got[1:, 0]).all() and got[3, 1] == 2.0

    def test_padded_block_of_networks(self):
        # networks of different sizes and anchor counts in one stack: each
        # network's rows and used slots equal its own solve, the padding
        # stays unreachable
        rng = np.random.default_rng(23)
        nets = []
        for n in (7, 30, 1, 18, 12):
            adj = rng.uniform(size=(n, n)) < 0.15
            size = min(n, int(rng.integers(0, 5)))
            nets.append((adj, np.sort(rng.choice(n, size=size, replace=False))))
        n_max = max(len(a) for a, _ in nets)
        a_max = max(len(s) for _, s in nets)
        stack = np.zeros((len(nets), n_max, n_max), dtype=bool)
        anchors = np.zeros((len(nets), a_max), dtype=np.intp)
        valid = np.zeros((len(nets), a_max), dtype=bool)
        for b, (adj, sources) in enumerate(nets):
            stack[b, : len(adj), : len(adj)] = adj
            anchors[b, : len(sources)] = sources
            valid[b, : len(sources)] = True
        got = _anchor_hop_block(stack, anchors, valid)
        for b, (adj, sources) in enumerate(nets):
            n, a = len(adj), len(sources)
            assert np.array_equal(got[b, :n, :a], _scipy_hops(adj, sources))
            assert np.isinf(got[b, n:]).all() and np.isinf(got[b, :, a:]).all()


@pytest.mark.perf
class TestNodePotentialRouting:
    """``_node_potentials`` must stay a whole-array pass: one
    ``log_likelihood`` call per Gauss–Hermite node however many anchor
    links the problem has, and no scipy csgraph solve.  A stream batch
    builds its node potentials as one block: one ``(links, K)`` slab and
    one hop BFS for all its problems."""

    def test_one_likelihood_call_per_quadrature_node(self, monkeypatch):
        ms = _builder_ms(11)
        n_links = int(ms.adjacency[np.ix_(ms.unknown_ids, ms.anchor_ids)].sum())
        assert n_links >= 3
        calls = []
        original = GaussianRanging.log_likelihood

        def counted(self, observed, distances):
            calls.append(np.shape(distances))
            return original(self, observed, distances)

        monkeypatch.setattr(GaussianRanging, "log_likelihood", counted)
        fast, ref, args = _builders(ms)
        fast(*args)
        assert calls == [(n_links, 81)] * 3
        ref(*args)  # the per-link reference: 3 calls per link
        assert len(calls) == 3 + 3 * n_links

    def test_no_csgraph_solve(self, monkeypatch):
        ms = _builder_ms(12)
        calls = []
        original = scipy.sparse.csgraph.shortest_path

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", counted)
        fast, ref, args = _builders(ms)
        fast(*args)
        assert calls == []
        ref(*args)  # the reference still solves all pairs once
        assert calls == [1]

    def test_stream_batch_is_one_block(self, monkeypatch):
        from repro.core import bnloc
        from repro.priors import GridBeliefPrior
        from repro.serve.workers import execute_batch
        from repro.stream import FleetConfig, StreamConfig, StreamRuntime, fleet_events

        fleet = FleetConfig(
            n_networks=32, n_nodes=12, anchor_ratio=0.3, radio_range=0.4,
            noise_sigma=0.02, n_steps=1, seed=5,
        )
        runtime = StreamRuntime(
            StreamConfig(grid_size=12, warm_iterations=2, batch_max=32),
            expected_networks=fleet.n_networks,
        )
        k = runtime._grid.n_cells
        gen = np.random.default_rng(0)
        pairs = []
        for epoch in fleet_events(fleet)[: fleet.n_networks]:  # step 0
            state = runtime._state(epoch.network_id)
            state.prior = GridBeliefPrior(
                runtime._grid, {n: gen.random(k) for n in range(fleet.n_nodes)}
            )
            pairs.append((state, epoch))
        items = runtime._items(pairs)
        n_links = sum(
            int(ms.adjacency[np.ix_(ms.unknown_ids, ms.anchor_ids)].sum())
            for ms in (item["measurements"] for item in items)
        )
        execute_batch(items)  # warm the shared pairwise-kernel cache
        likelihoods, bfs = [], []
        original_ll = GaussianRanging.log_likelihood
        original_bfs = bnloc._anchor_hop_block

        def counted_ll(self, observed, distances):
            likelihoods.append(np.shape(distances))
            return original_ll(self, observed, distances)

        def counted_bfs(adjacency, anchors, valid):
            bfs.append(len(adjacency))
            return original_bfs(adjacency, anchors, valid)

        monkeypatch.setattr(GaussianRanging, "log_likelihood", counted_ll)
        monkeypatch.setattr(bnloc, "_anchor_hop_block", counted_bfs)
        payloads = execute_batch(items)
        assert all(p["ok"] for p in payloads)
        assert likelihoods == [(n_links, k)] * 3
        assert bfs == [len(items)]


class TestNBPLocalizer:
    def test_localizes_all_unknowns(self, net, measurements):
        cfg = NBPConfig(n_particles=100, n_iterations=3)
        result = NBPLocalizer(config=cfg).localize(measurements, rng=0)
        assert result.localized_mask.all()

    def test_reasonable_accuracy(self, net, measurements):
        cfg = NBPConfig(n_particles=150, n_iterations=5)
        result = NBPLocalizer(config=cfg).localize(measurements, rng=0)
        assert mean_unknown_error(result, net) < 0.2

    def test_prior_improves(self, net, measurements):
        cfg = NBPConfig(n_particles=150, n_iterations=4)
        base = NBPLocalizer(config=cfg).localize(measurements, rng=0)
        prior = PerNodePrior(net.positions, sigma=0.05)
        pk = NBPLocalizer(prior=prior, config=cfg).localize(measurements, rng=0)
        assert mean_unknown_error(pk, net) < mean_unknown_error(base, net)

    def test_reproducible_with_seed(self, measurements):
        cfg = NBPConfig(n_particles=80, n_iterations=2)
        a = NBPLocalizer(config=cfg).localize(measurements, rng=5)
        b = NBPLocalizer(config=cfg).localize(measurements, rng=5)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_rejects_range_free(self, net):
        ms = observe(net, ConnectivityOnly(), rng=0)
        with pytest.raises(ValueError):
            NBPLocalizer().localize(ms)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NBPConfig(n_particles=5)
        with pytest.raises(ValueError):
            NBPConfig(n_iterations=0)
        with pytest.raises(ValueError):
            NBPConfig(proposal_boost=0)


class TestCooperativeLocalizer:
    def test_run_pipeline(self, net):
        loc = CooperativeLocalizer("grid-bp", grid_config=SMALL_CFG)
        result = loc.run(net, GaussianRanging(0.02), rng=3)
        assert isinstance(result, LocalizationResult)
        assert result.method == "grid-bp"

    def test_evaluate_returns_errors(self, net):
        loc = CooperativeLocalizer("grid-bp", grid_config=SMALL_CFG)
        result, err = loc.evaluate(net, GaussianRanging(0.02), rng=3)
        assert err.shape == (net.n_nodes,)
        np.testing.assert_allclose(err[net.anchor_mask], 0.0, atol=1e-12)

    def test_nbp_method(self, net):
        loc = CooperativeLocalizer(
            "nbp", nbp_config=NBPConfig(n_particles=80, n_iterations=2)
        )
        result = loc.run(net, GaussianRanging(0.02), rng=3)
        assert result.method == "nbp"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            CooperativeLocalizer("kalman")

    def test_run_reproducible(self, net):
        loc = CooperativeLocalizer("grid-bp", grid_config=SMALL_CFG)
        a = loc.run(net, GaussianRanging(0.02), rng=9)
        b = loc.run(net, GaussianRanging(0.02), rng=9)
        np.testing.assert_array_equal(a.estimates, b.estimates)


class TestLocalizationResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalizationResult(np.zeros((3, 3)), np.ones(3, bool), "m")
        with pytest.raises(ValueError):
            LocalizationResult(np.zeros((3, 2)), np.ones(2, bool), "m")
        est = np.full((3, 2), np.nan)
        with pytest.raises(ValueError):
            LocalizationResult(est, np.ones(3, bool), "m")

    def test_errors_nan_for_unlocalized(self):
        est = np.array([[0.0, 0.0], [np.nan, np.nan]])
        res = LocalizationResult(est, np.array([True, False]), "m")
        err = res.errors(np.zeros((2, 2)))
        assert err[0] == 0.0 and np.isnan(err[1])

    def test_errors_shape_check(self):
        res = LocalizationResult(np.zeros((2, 2)), np.ones(2, bool), "m")
        with pytest.raises(ValueError):
            res.errors(np.zeros((3, 2)))
