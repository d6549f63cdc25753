"""Kernel equivalence suite — the gate for ``repro.kernels``.

The batched trial-axis kernel exists only as a faster execution strategy
for the plain per-node loop: every test here asserts **bit identity**
(``np.array_equal`` on beliefs/estimates, ``==`` on the integer ledger),
never closeness.  Solver-level tests compare ``localize`` /
``localize_batch`` against :class:`~repro.audit.ReferenceGridBP` (baseline
node potentials plus the plain loop); kernel-level tests compare the two
kernels on one prepared problem.  The suite covers:

* randomized property sweeps (hypothesis) over batch width T, network
  size N, grid cells K, and both schedules;
* degenerate shapes — T=1, a single unknown, all-anchors networks, and
  disconnected unknowns whose inbox is empty every round;
* dense operators, non-finite message repair and deadline stops;
* the schedule dispatch and the two-name kernel lookup the timing harness
  in ``perfbench/`` relies on;
* the compatibility partition: mixed grid shapes/configs must split into
  separate groups (and ``BatchedBackend.run_batch`` must *refuse* a mixed
  batch), never silently co-batch;
* the shared message-weight cutoff (``_message_weights``) and the same
  cut on beliefs (``_belief_weights``): their contract, bit identity of
  every message and belief site on a problem whose weights fall off the
  cliff into the subnormal band (beliefs with exact zeros and no
  subnormal entry), and routing guards that fail when a message or
  belief site bypasses its function;
* the round's chunk plan: bit identity at chunk budgets from one group
  per chunk to one chunk per round, and a routing guard that fails when
  the round goes back to per-group weights or per-group product slabs;
* the group estimate pass: ``localize_batch`` byte-equal to pair-by-pair
  ``localize`` with a fallback node, a damped restart, MAP estimates,
  health checks off, recorded traces and two grid shapes in one batch;
* the node-potential blocks: ``localize_batch`` byte-equal to pair-by-pair
  ``localize`` on a batch mixing network sizes, anchor counts, priors,
  modalities, configs, models and the reference solver (block count
  checked through a spy), and a failing pair raising the error the
  pair-by-pair loop raises first;
* the edge-operator blocks: ``localize_batch`` byte-equal to pair-by-pair
  ``localize`` on ranging, private-cache, connectivity-only and bearing
  batches mixing network sizes and a problem with no unknown-unknown
  edge; each problem's operators the ones of its block of one (the same
  CSR objects under the shared cache); a NaN or negative range raising
  the pair-by-pair loop's first error; and a routing guard that fails
  when a group looks the registry up more than once or a quantized key
  more than once.

The fast lane (module marker ``kernel``) runs in the default suite; the
randomized sweeps are additionally marked ``slow`` — select them with
``-m "kernel and slow"``.
"""

import dataclasses as dc
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.audit import ReferenceGridBP
from repro.core import GridBPConfig, GridBPLocalizer
from repro.core import bnloc
from repro.core.bnloc import localize_batch
from repro.core.grid import Grid2D
from repro.core.potentials import shared_registry
from repro.kernels import (
    BPProblem,
    IncompatibleBatchError,
    compatibility_key,
    config_key,
    deadline_scope,
    get_backend,
    kernel_for,
)
from repro.kernels import batched as batched_kernel
from repro.kernels.reference import (
    _MSG_LOG_CUTOFF,
    _belief_weights,
    _message_weights,
)
from repro.measurement import BearingModel, ConnectivityOnly, GaussianRanging, observe
from repro.network import NetworkConfig, UnitDiskRadio, generate_network
from repro.obs import NULL_TRACER, Tracer
from repro.parallel import DistributedBPSimulator
from repro.parallel.messaging import SensorNodeAgent
from repro.priors import GaussianPrior, GridBeliefPrior
from repro.priors.base import PositionPrior

pytestmark = pytest.mark.kernel

BASE_CFG = GridBPConfig(grid_size=8, max_iterations=5, tol=1e-9)


def _observed(
    seed, n=14, anchor_ratio=0.25, radio=0.42, connected=False, bearings=False,
    sigma=0.03, ranging=True,
):
    """(network, measurements): Gaussian ranges of σ *sigma*, or
    connectivity only."""
    net = generate_network(
        NetworkConfig(
            n_nodes=n,
            anchor_ratio=anchor_ratio,
            radio=UnitDiskRadio(radio),
            require_connected=connected,
        ),
        rng=seed,
    )
    ms = observe(
        net,
        GaussianRanging(sigma) if ranging else ConnectivityOnly(),
        rng=seed + 1,
        bearings=BearingModel(0.1) if bearings else None,
    )
    return net, ms


def _measurements(
    seed, n=14, anchor_ratio=0.25, radio=0.42, connected=True, bearings=False
):
    return _observed(seed, n, anchor_ratio, radio, connected, bearings)[1]


def _problem(ms, cfg):
    """Prepared BPProblem for *ms* (the kernel input)."""
    return GridBPLocalizer(config=cfg)._prepare(ms).problem


def _run_pair(ms_list, cfg):
    """(stacked localize_batch results, sequential reference results)."""
    batched = localize_batch(
        [(GridBPLocalizer(config=cfg), ms) for ms in ms_list]
    )
    sequential = [ReferenceGridBP(config=cfg).localize(ms) for ms in ms_list]
    return batched, sequential


def _assert_bit_equal(a, b):
    assert np.array_equal(a.localized_mask, b.localized_mask)
    m = a.localized_mask
    assert np.array_equal(a.estimates[m], b.estimates[m])
    assert a.n_iterations == b.n_iterations
    assert a.converged == b.converged
    assert a.messages_sent == b.messages_sent
    assert a.bytes_sent == b.bytes_sent
    ba, bb = a.extras["beliefs"], b.extras["beliefs"]
    assert sorted(ba) == sorted(bb)
    for u in ba:
        assert np.array_equal(ba[u], bb[u])


class TestDegenerateShapes:
    def test_single_trial_batch_equals_reference(self):
        ms = _measurements(21)
        batched, sequential = _run_pair([ms], BASE_CFG)
        _assert_bit_equal(batched[0], sequential[0])

    def test_single_unknown_node(self):
        # n=5 at anchor_ratio 0.8 leaves exactly one unknown: no
        # unknown-unknown edges, the kernel must converge in round zero.
        ms = _measurements(5, n=5, anchor_ratio=0.8, radio=0.9)
        assert len(ms.unknown_ids) == 1
        batched, sequential = _run_pair([ms, ms], BASE_CFG)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)
            assert b.converged and b.n_iterations == 0

    def test_all_anchor_network(self):
        net = generate_network(
            NetworkConfig(
                n_nodes=6,
                anchor_ratio=0.5,
                radio=UnitDiskRadio(0.9),
                require_connected=True,
            ),
            rng=9,
        )
        net.anchor_mask[:] = True  # every node self-localizes
        ms = observe(net, GaussianRanging(0.03), rng=10)
        assert len(ms.unknown_ids) == 0
        batched, sequential = _run_pair([ms], BASE_CFG)
        _assert_bit_equal(batched[0], sequential[0])

    def test_empty_inbox_disconnected_unknowns(self):
        # A sparse disconnected network: some unknowns receive no messages
        # at all (no anchors, no unknown neighbors in range).
        ms = _measurements(33, n=12, radio=0.18, connected=False)
        batched, sequential = _run_pair([ms, ms, ms], BASE_CFG)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)

    def test_mixed_convergence_freezing(self):
        # Different networks converge after different round counts; a
        # frozen trial must stop consuming iterations (and messages) while
        # the rest of the stack keeps running.
        ms_list = [_measurements(s) for s in (40, 42, 44, 46)]
        cfg = dc.replace(BASE_CFG, max_iterations=15, tol=1e-3)
        batched, sequential = _run_pair(ms_list, cfg)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)
        assert len({r.n_iterations for r in batched}) > 1, (
            "scenario choice no longer exercises mixed per-trial "
            "convergence — pick seeds whose round counts differ"
        )


class TestSchedulesAndTelemetry:
    @pytest.mark.parametrize("schedule", ["sync", "serial"])
    def test_both_schedules_bit_identical(self, schedule):
        cfg = dc.replace(BASE_CFG, schedule=schedule)
        ms_list = [_measurements(s) for s in (50, 51, 52)]
        batched, sequential = _run_pair(ms_list, cfg)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)

    def test_max_product_bit_identical(self):
        cfg = dc.replace(BASE_CFG, max_product=True, estimator="map")
        ms_list = [_measurements(s) for s in (53, 54)]
        batched, sequential = _run_pair(ms_list, cfg)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)

    def test_traced_single_trial_telemetry_matches_reference(self):
        # T=1 through the batched kernel still emits the per-iteration
        # trace; everything except the kernel name must match reference.
        ms = _measurements(27)
        ref = ReferenceGridBP(config=BASE_CFG, tracer=Tracer()).localize(ms)
        bat = GridBPLocalizer(config=BASE_CFG, tracer=Tracer()).localize(ms)
        ref, bat = ref.telemetry, bat.telemetry
        assert bat["meta"]["backend"] == "batched"
        assert ref["meta"]["backend"] == "reference"
        strip = lambda t: {
            k: (
                {mk: mv for mk, mv in v.items() if mk != "backend"}
                if k == "meta"
                else v
            )
            for k, v in t.items()
            if k != "timers"
        }
        assert strip(ref) == strip(bat)

    def test_batch_annotations_present(self):
        ms_list = [_measurements(s) for s in (60, 61)]
        locs = [GridBPLocalizer(config=BASE_CFG, tracer=Tracer()) for _ in ms_list]
        results = localize_batch(list(zip(locs, ms_list)))
        for r in results:
            assert r.telemetry["meta"]["backend"] == "batched"
            assert r.telemetry["meta"]["batch_size"] == 2
            assert r.telemetry["meta"]["batch_groups"] == 1


def _kernel_groups(monkeypatch, cfgs, ms):
    """The kernel groups ``localize_batch`` forms over one pair per config
    in *cfgs* (all on *ms*), as lists of input positions in the order
    they run, each group's problems checked to share one
    ``compatibility_key``."""
    calls = []
    original = bnloc._solve_group
    locs = [GridBPLocalizer(config=c) for c in cfgs]
    position = {id(loc): i for i, loc in enumerate(locs)}

    def spy(solvers, preps, kernel, n_groups=0):
        assert len({compatibility_key(p.problem) for p in preps}) == 1
        calls.append([position[id(loc)] for loc in solvers])
        return original(solvers, preps, kernel, n_groups)

    monkeypatch.setattr(bnloc, "_solve_group", spy)
    localize_batch([(loc, ms) for loc in locs])
    return calls


class TestCompatibilityPartition:
    def test_mixed_grid_shapes_split(self, monkeypatch):
        ms = _measurements(70)
        c8, c10 = BASE_CFG, dc.replace(BASE_CFG, grid_size=10)
        groups = _kernel_groups(monkeypatch, [c8, c10, c8, c10, c8], ms)
        assert groups == [[0, 2, 4], [1, 3]]
        assert compatibility_key(_problem(ms, c8)) != compatibility_key(
            _problem(ms, c10)
        )

    def test_mixed_config_splits(self, monkeypatch):
        ms = _measurements(70)
        cfgs = [BASE_CFG, dc.replace(BASE_CFG, damping=0.25)]
        assert _kernel_groups(monkeypatch, cfgs, ms) == [[0], [1]]

    def test_run_batch_refuses_mixed_batch(self):
        ms = _measurements(70)
        p8 = _problem(ms, BASE_CFG)
        p10 = _problem(ms, dc.replace(BASE_CFG, grid_size=10))
        with pytest.raises(IncompatibleBatchError, match="compatibility_key"):
            get_backend("batched").run_batch([p8, p10])

    def test_localize_batch_partitions_mixed_configs(self):
        # The public API must split incompatible trials into separate
        # groups and still return bit-exact, input-ordered results.
        ms_list = [_measurements(s) for s in (80, 81, 82, 83)]
        cfgs = [
            BASE_CFG,
            dc.replace(BASE_CFG, grid_size=10),
            BASE_CFG,
            dc.replace(BASE_CFG, grid_size=10),
        ]
        pairs = [
            (GridBPLocalizer(config=c), ms) for c, ms in zip(cfgs, ms_list)
        ]
        batched = localize_batch(pairs)
        for (loc, ms), b in zip(pairs, batched):
            ref = ReferenceGridBP(config=loc.config).localize(ms)
            _assert_bit_equal(b, ref)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"grid_size": 11, "tol": 1e-3, "damping": 0.0},
            {"schedule": "serial", "estimator": "map", "max_product": True},
            {"use_negative_evidence": False, "use_hop_bounds": False},
            {"cell_blur_fraction": 0.0, "record_trace": True},
            {"audit": "warn", "shared_cache": False, "restart_damping": 0.9},
        ],
    )
    def test_config_key_equals_astuple_key(self, overrides):
        # The key is a shallow field tuple; it must stay interchangeable
        # with the dataclasses.astuple key it replaced (equal and
        # equal-hashing), so groups and serve's request keys do not move.
        cfg = dc.replace(BASE_CFG, **overrides)
        grid = Grid2D(cfg.grid_size, cfg.grid_size, 1.5, 0.75)
        key = config_key(grid, cfg)
        deep = key[:-1] + (dc.astuple(cfg),)
        assert key == deep and hash(key) == hash(deep)
        assert key != config_key(grid, dc.replace(cfg, tol=cfg.tol * 2))

    @pytest.mark.parametrize(
        "cfg",
        [
            GridBPConfig(),
            GridBPConfig(
                grid_size=13, max_iterations=7, damping=0.25, schedule="serial",
                estimator="map", max_product=True, audit="warn",
            ),
        ],
        ids=["default", "non-default"],
    )
    def test_config_key_equals_field_loop_key(self, cfg):
        # The field values come from a getter cached per config class; the
        # key must equal the per-call dataclasses.fields loop it replaced.
        grid = Grid2D(cfg.grid_size)
        key = config_key(grid, cfg)
        old = key[:-1] + (tuple(getattr(cfg, f.name) for f in dc.fields(cfg)),)
        assert key == old and hash(key) == hash(old)
        assert type(key[-1]) is tuple and len(key[-1]) == len(dc.fields(cfg))

    def test_unknown_backend_rejected(self):
        # No option selects a kernel: the config has no such field, and
        # the lookup knows exactly two names.
        with pytest.raises(TypeError, match="backend"):
            GridBPConfig(backend="batched")
        with pytest.raises(ValueError, match="available"):
            get_backend("no-such-backend")


def _assert_outcomes_equal(a, b):
    assert np.array_equal(a.beliefs, b.beliefs)
    assert a.n_iterations == b.n_iterations
    assert a.converged == b.converged
    assert a.health == b.health
    assert len(a.trace) == len(b.trace)
    for x, y in zip(a.trace, b.trace):
        assert np.array_equal(x, y)


def _both_kernels(problem):
    """(batched outcome, plain-loop outcome) on one prepared problem."""
    return (
        get_backend("batched").run(problem),
        get_backend("reference").run(problem),
    )


class TestKernelEquivalence:
    """The two kernels on one prepared problem, synchronous schedule."""

    def test_sparse_operators(self):
        ms = _measurements(90)
        problem = _problem(ms, dc.replace(BASE_CFG, record_trace=True))
        bat, ref = _both_kernels(problem)
        _assert_outcomes_equal(bat, ref)
        assert bat.n_iterations > 1

    def test_dense_operators(self):
        # Dense operators skip the sparse mat-mat groups and run one gemv
        # per slot in the batched kernel.
        ms = _measurements(91)
        problem = _problem(ms, BASE_CFG)
        problem.ops = [(f.toarray(), b.toarray()) for f, b in problem.ops]
        assert problem.ops and isinstance(problem.ops[0][0], np.ndarray)
        _assert_outcomes_equal(*_both_kernels(problem))

    def test_edgeless_problem(self):
        ms = _measurements(92)
        problem = _problem(ms, dc.replace(BASE_CFG, record_trace=True))
        problem.edges, problem.ops = [], []
        bat, ref = _both_kernels(problem)
        _assert_outcomes_equal(bat, ref)
        assert bat.converged and bat.n_iterations == 0

    def test_nonfinite_messages_repaired(self):
        ms = _measurements(93)
        problem = _problem(ms, BASE_CFG)
        poisoned = problem.ops[0][0].copy()
        poisoned.data[:] = np.nan
        problem.ops[0] = (poisoned, poisoned)
        bat, ref = _both_kernels(problem)
        _assert_outcomes_equal(bat, ref)
        assert bat.health["message_repairs"] > 0

    def test_deadline_stop(self):
        ms = _measurements(94)
        problem = _problem(ms, BASE_CFG)
        with deadline_scope(seconds=0.0):
            bat, ref = _both_kernels(problem)
        _assert_outcomes_equal(bat, ref)
        assert bat.n_iterations == 1 and bat.health["deadline_stop"]


class TestKernelDispatch:
    def test_schedule_picks_the_kernel(self):
        assert kernel_for(BASE_CFG) is get_backend("batched")
        serial = dc.replace(BASE_CFG, schedule="serial")
        assert kernel_for(serial) is get_backend("reference")
        maxprod = dc.replace(BASE_CFG, max_product=True)
        assert kernel_for(maxprod) is get_backend("reference")

    @pytest.mark.parametrize(
        "overrides",
        [{"schedule": "serial"}, {"max_product": True}],
        ids=["serial", "max-product"],
    )
    def test_batched_kernel_refuses_sequential_schedules(self, overrides):
        problem = _problem(_measurements(96), dc.replace(BASE_CFG, **overrides))
        with pytest.raises(ValueError, match="kernel_for"):
            get_backend("batched").run(problem)

    @pytest.mark.parametrize(
        "overrides, name",
        [({}, "batched"), ({"schedule": "serial"}, "reference")],
        ids=["sync", "serial"],
    )
    def test_localize_calls_the_patched_instance(self, monkeypatch, overrides, name):
        # Timing harnesses wrap ``run`` on the instances get_backend
        # returns; a solve must go through that wrapper.
        kernel = get_backend(name)
        calls = []
        original = kernel.run

        def counted(problem, tracer=NULL_TRACER):
            calls.append(problem)
            return original(problem, tracer)

        monkeypatch.setattr(kernel, "run", counted)
        cfg = dc.replace(BASE_CFG, **overrides)
        GridBPLocalizer(config=cfg).localize(_measurements(95))
        assert len(calls) == 1


# ------------------------------------------------------------------ #
# The shared message-weight cutoff.

#: modules whose message sites bind ``_message_weights`` by name
_WEIGHT_SITES = (
    "repro.kernels.reference",
    "repro.kernels.batched",
    "repro.parallel.messaging",
)
_TINY = np.finfo(float).tiny  # smallest normal float64


def _patch_weights(monkeypatch, fn):
    for name in _WEIGHT_SITES:
        monkeypatch.setattr(importlib.import_module(name), "_message_weights", fn)


def _plain_exp(h, out=None):
    return np.exp(h, out=out)


def _is_subnormal(x):
    return (x > 0) & (x < _TINY)


class TestMessageWeights:
    """Contract of the cut every message site uses (``_message_weights``);
    :class:`TestBeliefWeights` runs the same checks on the belief sites'
    ``_belief_weights``."""

    weights = staticmethod(_message_weights)

    def test_bit_equal_to_exp_above_cutoff(self):
        rng = np.random.default_rng(0)
        h = np.concatenate(
            [
                -rng.uniform(0.0, -_MSG_LOG_CUTOFF, size=4000),
                [0.0, -1e-300, np.nextafter(_MSG_LOG_CUTOFF, 0.0)],
            ]
        )
        assert (h > _MSG_LOG_CUTOFF).all()
        assert np.array_equal(self.weights(h), np.exp(h))

    def test_zero_at_and_below_cutoff(self):
        h = np.array(
            [
                _MSG_LOG_CUTOFF,
                np.nextafter(_MSG_LOG_CUTOFF, -np.inf),
                -600.0,
                -720.0,
                -745.0,
                -746.0,
                -1e4,
                -np.inf,
            ]
        )
        w = self.weights(h)
        assert np.array_equal(w, np.zeros_like(h))
        assert not np.signbit(w).any()

    def test_nan_propagates(self):
        w = self.weights(np.array([0.0, np.nan, -1.0, -700.0]))
        assert np.isnan(w[1])
        assert w[0] == 1.0 and w[2] == np.exp(-1.0) and w[3] == 0.0

    def test_out_may_alias_input(self):
        h = -np.random.default_rng(1).uniform(0.0, 800.0, size=(6, 50))
        want = self.weights(h)
        got = self.weights(h, out=h)
        assert got is h
        assert np.array_equal(got, want)

    def test_never_emits_subnormals(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = -rng.uniform(0.0, 1200.0, size=(20, 144))
            # a dense slice of the band where plain exp is subnormal
            h[:, :60] = -rng.uniform(575.0, 745.0, size=(20, 60))
            h[:, 0] = 0.0
            assert _is_subnormal(np.exp(h)).any()  # the band is exercised
            w = self.weights(h)
            assert not _is_subnormal(w).any()
            kept = w > 0
            assert (w[kept] >= np.exp(_MSG_LOG_CUTOFF)).all()


class TestBeliefWeights(TestMessageWeights):
    """The message cut's contract, held by ``_belief_weights``."""

    weights = staticmethod(_belief_weights)


class _CliffPrior(PositionPrior):
    """Deployment pre-knowledge falling ~1000 nats across the unit square.

    Every node's cells then span the band where plain ``exp`` of a
    max-shifted weight is subnormal — the cliff the cutoff removes.
    """

    def log_density(self, node, points):
        return -(950.0 + 5.0 * (node % 7)) * points[:, 0]


_CLIFF = _CliffPrior()
_CLIFF_CFG = dc.replace(BASE_CFG, grid_size=10, max_iterations=6)
_CLIFF_CONFIGS = {
    "sync": _CLIFF_CFG,
    "serial": dc.replace(_CLIFF_CFG, schedule="serial"),
    "max-product": dc.replace(_CLIFF_CFG, max_product=True, estimator="map"),
}


def _cliff_ms(seed=101):
    return _measurements(seed, n=16)


def _cliff_problem():
    return GridBPLocalizer(prior=_CLIFF, config=_CLIFF_CFG)._prepare(
        _cliff_ms()
    ).problem


def _central(cfg):
    return GridBPLocalizer(prior=_CLIFF, config=cfg).localize(_cliff_ms())


def _distributed():
    result, _stats = DistributedBPSimulator(prior=_CLIFF, config=_CLIFF_CFG).run(
        _cliff_ms()
    )
    return result


class TestMessageWeightCliff:
    """Every message site on a problem whose weights cross the cutoff."""

    def test_problem_exercises_the_cliff(self):
        # Cells the old plain exp kept as nonzero subnormals and the
        # cutoff now zeroes: the round-1 weights are exactly the
        # row-shifted node potentials (inboxes start uniform).
        phi = _cliff_problem().log_phi
        shifted = phi - phi.max(axis=1, keepdims=True)
        in_band = (shifted <= _MSG_LOG_CUTOFF) & (np.exp(shifted) > 0)
        assert in_band.sum(axis=1).min() > 0  # every node has band cells
        assert _is_subnormal(np.exp(shifted)).any()
        assert not _is_subnormal(_message_weights(shifted)).any()

    def test_sync_sites_bit_identical(self):
        central = _central(_CLIFF_CFG)  # batched kernel, sparse groups
        reference = ReferenceGridBP(prior=_CLIFF, config=_CLIFF_CFG)
        _assert_bit_equal(central, reference.localize(_cliff_ms()))
        _assert_bit_equal(central, _distributed())
        # the batched kernel's dense per-slot path against the plain loop
        # (gemv sums in another order than CSR, so only within the path)
        problem = _cliff_problem()
        problem.ops = [(f.toarray(), b.toarray()) for f, b in problem.ops]
        _assert_outcomes_equal(*_both_kernels(problem))

    @pytest.mark.parametrize("name", ["serial", "max-product"])
    def test_sequential_schedules_bit_identical(self, name):
        cfg = _CLIFF_CONFIGS[name]
        _assert_bit_equal(
            _central(cfg),
            ReferenceGridBP(prior=_CLIFF, config=cfg).localize(_cliff_ms()),
        )

    @pytest.mark.parametrize("name", sorted(_CLIFF_CONFIGS))
    def test_estimates_match_plain_exp(self, monkeypatch, name):
        # The dropped weights are < 1e-250: far below anything the
        # 1e-12 message floor lets through, so estimates do not move.
        cfg = _CLIFF_CONFIGS[name]
        cut = _central(cfg)
        cut_dist = _distributed() if name == "sync" else None
        _patch_weights(monkeypatch, _plain_exp)
        plain = _central(cfg)
        assert np.array_equal(cut.estimates, plain.estimates)
        assert cut.n_iterations == plain.n_iterations
        if cut_dist is not None:
            assert np.array_equal(cut_dist.estimates, _distributed().estimates)


def _patch_belief_weights(monkeypatch, fn):
    for name in _WEIGHT_SITES:
        monkeypatch.setattr(importlib.import_module(name), "_belief_weights", fn)


def _site_beliefs():
    """Beliefs of a cliff problem from the batched kernel, the plain loop
    and the distributed agents, each stacked ``(n_unknown, K)``.  (Seed
    102: its final beliefs, unlike seed 101's, reach the subnormal band.)
    """
    ms = _cliff_ms(102)
    results = (
        GridBPLocalizer(prior=_CLIFF, config=_CLIFF_CFG).localize(ms),
        ReferenceGridBP(prior=_CLIFF, config=_CLIFF_CFG).localize(ms),
        DistributedBPSimulator(prior=_CLIFF, config=_CLIFF_CFG).run(ms)[0],
    )
    return [
        np.stack([r.extras["beliefs"][u] for u in sorted(r.extras["beliefs"])])
        for r in results
    ]


class TestBeliefCliff:
    """Every belief site on the cliff problem, whose beliefs a plain
    ``exp`` would leave full of subnormal entries."""

    def test_sites_byte_equal_with_exact_zeros(self):
        batched, plain, distributed = _site_beliefs()
        assert batched.tobytes() == plain.tobytes() == distributed.tobytes()
        assert (batched == 0).any(axis=1).all()  # every node has cut cells
        assert not _is_subnormal(batched).any()
        assert not np.signbit(batched).any()

    def test_plain_exp_would_emit_subnormals(self, monkeypatch):
        # Without the cut every site's beliefs carry subnormal entries,
        # so the checks above are not vacuous.
        _patch_belief_weights(monkeypatch, _plain_exp)
        for beliefs in _site_beliefs():
            assert _is_subnormal(beliefs).any()


def _degenerate_problem():
    """Two unknowns, one edge; node 0's only above-cutoff cells feed
    operator columns that are empty, so its message to node 1 sums to 0.
    """
    grid = Grid2D(BASE_CFG.grid_size)
    K = grid.n_cells
    rng = np.random.default_rng(3)
    live = np.arange(K) < 4  # node 0's mass sits in cells 0..3
    log_phi = np.empty((2, K))
    log_phi[0] = np.where(live, 0.0, -rng.uniform(600.0, 740.0, size=K))
    log_phi[1] = -rng.uniform(0.0, 5.0, size=K)
    dense = rng.uniform(0.5, 1.0, size=(K, K))
    fwd = dense.copy()
    fwd[:, live] = 0.0  # node 0 -> 1: the live cells reach nothing
    ops = [(sparse.csr_matrix(fwd), sparse.csr_matrix(dense.T))]
    # undamped, so the fallback message stays exactly uniform
    cfg = dc.replace(BASE_CFG, max_iterations=3, damping=0.0)
    return BPProblem(log_phi=log_phi, edges=[(0, 1)], ops=ops, grid=grid, cfg=cfg)


def _agent_beliefs(problem, n_rounds):
    """The distributed agents' beliefs after *n_rounds* rounds, and the
    first message node ``i`` sent to node ``j``."""
    K = problem.n_cells
    (i, j), (fwd, bwd) = problem.edges[0], problem.ops[0]
    agents = {u: SensorNodeAgent(u, problem.log_phi[u]) for u in (i, j)}
    agents[i].add_neighbor(j, fwd, K)
    agents[j].add_neighbor(i, bwd, K)
    for a in agents.values():
        a.reset_memory(K)
    first = None
    for _ in range(n_rounds):
        outboxes = {
            u: a.compute_outgoing(problem.cfg.damping) for u, a in agents.items()
        }
        if first is None:
            first = outboxes[i][j]
        for u, out in outboxes.items():
            for other, msg in out.items():
                agents[other].inbox[u] = msg
    return np.stack([agents[i].belief(), agents[j].belief()]), first


class TestDegenerateMessageRow:
    """A row whose every kept weight hits empty operator columns takes
    the ``sums <= 0`` uniform fallback identically at every site."""

    def test_uniform_fallback_at_every_site(self):
        problem = _degenerate_problem()
        K = problem.n_cells
        bat, ref = _both_kernels(problem)
        _assert_outcomes_equal(bat, ref)
        dense = _degenerate_problem()
        dense.ops = [(f.toarray(), b.toarray()) for f, b in dense.ops]
        _assert_outcomes_equal(*_both_kernels(dense))
        agent_beliefs, msg_0_to_1 = _agent_beliefs(problem, ref.n_iterations)
        assert np.array_equal(agent_beliefs, ref.beliefs)
        # the fallback really triggered: node 0 sent the uniform message
        assert np.array_equal(msg_0_to_1, np.full(K, 1.0 / K))

    def test_plain_exp_would_not_fall_back(self, monkeypatch):
        # Without the cutoff the band cells' subnormal weights reach the
        # nonempty columns and the message is not uniform — the row is
        # degenerate only because of the cutoff.
        problem = _degenerate_problem()
        K = problem.n_cells
        _patch_weights(monkeypatch, _plain_exp)
        _beliefs, msg_0_to_1 = _agent_beliefs(problem, 1)
        assert not np.array_equal(msg_0_to_1, np.full(K, 1.0 / K))


@pytest.mark.perf
class TestMessageWeightRouting:
    """Every message site turns log weights into weights through the one
    cutoff function; a new site that bypasses it fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log: list[int] = []

        def counted(h, out=None):
            log.append(h.shape[0] if h.ndim == 2 else 1)
            return _message_weights(h, out=out)

        _patch_weights(monkeypatch, counted)
        return log

    @staticmethod
    def _solve(cfg, seed):
        """Localize; returns the weight rows the solve must have produced:
        one per directed message per round."""
        ms = _measurements(seed)
        n_dir = 2 * len(_problem(ms, cfg).edges)
        return n_dir * GridBPLocalizer(config=cfg).localize(ms).n_iterations

    def test_sync_sparse_solve(self, calls):
        expected = self._solve(BASE_CFG, 110)
        assert sum(calls) == expected > 0

    def test_dense_operator_solve(self, calls):
        problem = _problem(_measurements(111), BASE_CFG)
        problem.ops = [(f.toarray(), b.toarray()) for f, b in problem.ops]
        out = get_backend("batched").run(problem)
        assert sum(calls) == 2 * len(problem.edges) * out.n_iterations > 0

    @pytest.mark.parametrize(
        "overrides",
        [{"schedule": "serial"}, {"max_product": True}],
        ids=["serial", "max-product"],
    )
    def test_sequential_solves(self, calls, overrides):
        expected = self._solve(dc.replace(BASE_CFG, **overrides), 112)
        assert sum(calls) == expected > 0

    def test_distributed_run(self, calls):
        _result, stats = DistributedBPSimulator(config=BASE_CFG).run(
            _measurements(113)
        )
        assert sum(calls) == sum(s.messages for s in stats) > 0


@pytest.mark.perf
class TestBeliefWeightRouting:
    """Every belief site turns a log belief into a belief through the one
    cut; a new site that bypasses it fails here."""

    CFG = dc.replace(BASE_CFG, record_trace=True)

    @pytest.fixture
    def calls(self, monkeypatch):
        log: list[int] = []

        def counted(h, out=None):
            log.append(h.shape[0] if h.ndim == 2 else 1)
            return _belief_weights(h, out=out)

        _patch_belief_weights(monkeypatch, counted)
        return log

    @staticmethod
    def _n_unknown(cfg, ms):
        return _problem(ms, cfg).log_phi.shape[0]

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"schedule": "serial"}, {"max_product": True}],
        ids=["sync", "serial", "max-product"],
    )
    def test_kernel_snapshots(self, calls, overrides):
        # A recorded trace takes one snapshot before round 1, one per
        # round and the final beliefs: one row per unknown each time.
        cfg = dc.replace(self.CFG, **overrides)
        ms = _measurements(114)
        n_u = self._n_unknown(cfg, ms)
        calls.clear()
        result = GridBPLocalizer(config=cfg).localize(ms)
        assert sum(calls) == n_u * (result.n_iterations + 2) > 0

    def test_distributed_run(self, calls):
        ms = _measurements(115)
        n_u = self._n_unknown(BASE_CFG, ms)
        calls.clear()
        DistributedBPSimulator(config=BASE_CFG).run(ms)
        assert sum(calls) == n_u > 0


# ------------------------------------------------------------------ #
# Round chunks: consecutive operator groups share one pass of the
# round's row-wise steps.

#: ``_CHUNK_BYTES`` values for BASE_CFG (K = 64, 512 B per row): every
#: group its own chunk; six rows, so pairs pack three to a chunk and the
#: larger cross-trial groups run over budget; one chunk per round.
_BUDGETS = {"per-group": 1, "mid": 6 * 64 * 8, "one-chunk": 1 << 62}


@pytest.fixture(params=sorted(_BUDGETS))
def chunk_budget(request, monkeypatch):
    monkeypatch.setattr(batched_kernel, "_CHUNK_BYTES", _BUDGETS[request.param])
    return request.param


@pytest.fixture
def chunk_plans(monkeypatch):
    """Every ``(group_rows, chunks)`` plan the kernel builds."""
    log: list = []
    pack = batched_kernel._pack_chunks

    def recorded(group_rows, row_bytes):
        chunks = pack(group_rows, row_bytes)
        log.append((list(group_rows), row_bytes, chunks))
        return chunks

    monkeypatch.setattr(batched_kernel, "_pack_chunks", recorded)
    return log


def _assert_three_way(ms_list, cfg):
    """Batched ``localize_batch`` == sequential ``localize`` == plain loop."""
    batched, reference = _run_pair(ms_list, cfg)
    for b, r, ms in zip(batched, reference, ms_list):
        _assert_bit_equal(b, GridBPLocalizer(config=cfg).localize(ms))
        _assert_bit_equal(b, r)
    return batched


def _assert_batch_matches_plain_loop(problems):
    """``run_batch`` == one batched run per problem == the plain loop."""
    outs = get_backend("batched").run_batch(problems)
    for out, problem in zip(outs, problems):
        _assert_outcomes_equal(out, get_backend("batched").run(problem))
        _assert_outcomes_equal(out, get_backend("reference").run(problem))
    return outs


class TestChunkBoundaries:
    """Bit identity does not depend on where chunk boundaries fall."""

    def test_ranging_and_bearing_batch(self, chunk_budget, chunk_plans):
        # Bearing kernels differ per direction, so bearing problems add
        # singleton groups that are not pair-local beside the ranging
        # problems' pair-local ones.
        ms_list = [_measurements(120 + s, bearings=bool(s % 2)) for s in range(4)]
        _assert_three_way(ms_list, BASE_CFG)
        rows, row_bytes, chunks = chunk_plans[0]
        assert 1 in rows and 2 in rows
        if chunk_budget == "per-group":
            assert all(hi - lo == 1 for lo, hi in chunks)
        elif chunk_budget == "one-chunk":
            assert chunks == [(0, len(rows))]
        else:
            assert any(hi - lo > 1 for lo, hi in chunks)
            over = [g for g, m in enumerate(rows) if m * row_bytes > _BUDGETS["mid"]]
            assert over and all((g, g + 1) in chunks for g in over)

    def test_trials_freeze_mid_run(self, chunk_budget):
        cfg = dc.replace(BASE_CFG, max_iterations=15, tol=1e-3)
        batched = _assert_three_way([_measurements(s) for s in (40, 42, 44, 46)], cfg)
        assert len({r.n_iterations for r in batched}) > 1

    def test_dense_operator_slots(self, chunk_budget):
        problems = [
            _problem(_measurements(s), dc.replace(BASE_CFG, record_trace=True))
            for s in (130, 131)
        ]
        ops = problems[0].ops
        ops[::2] = [(f.toarray(), b.toarray()) for f, b in ops[::2]]
        _assert_batch_matches_plain_loop(problems)

    def test_nonfinite_messages_repaired(self, chunk_budget):
        problems = [_problem(_measurements(s), BASE_CFG) for s in (132, 133)]
        poisoned = problems[0].ops[0][0].copy()
        poisoned.data[:] = np.nan
        problems[0].ops[0] = (poisoned, poisoned)
        outs = _assert_batch_matches_plain_loop(problems)
        assert outs[0].health["message_repairs"] > 0
        assert outs[1].health["message_repairs"] == 0

    def test_deadline_stop(self, chunk_budget):
        problems = [_problem(_measurements(s), BASE_CFG) for s in (134, 135)]
        with deadline_scope(seconds=0.0):
            outs = _assert_batch_matches_plain_loop(problems)
        assert all(o.n_iterations == 1 and o.health["deadline_stop"] for o in outs)


@pytest.mark.perf
class TestChunkRouting:
    """On a serve-shape batch (8 problems x 25 nodes, grid 12) a round
    runs its row-wise steps once per chunk, not once per operator group,
    and a rebuild allocates no per-group product slabs."""

    @pytest.fixture(scope="class")
    def problems(self):
        cfg = dc.replace(BASE_CFG, grid_size=12, max_iterations=10, tol=1e-300)
        return [
            _problem(_measurements(140 + s, n=25, anchor_ratio=0.24, radio=0.35), cfg)
            for s in range(8)
        ]

    @staticmethod
    def _n_groups(problems):
        return len({id(op) for p in problems for pair in p.ops for op in pair})

    def test_weights_once_per_chunk(self, problems, chunk_plans, monkeypatch):
        calls: list[int] = []

        def counted(h, out=None):
            calls.append(h.shape[0])
            return _message_weights(h, out=out)

        monkeypatch.setattr(batched_kernel, "_message_weights", counted)
        outs = get_backend("batched").run_batch(problems)
        assert {o.n_iterations for o in outs} == {10}
        ((_rows, _row_bytes, chunks),) = chunk_plans
        assert len(calls) == 10 * len(chunks)
        assert len(chunks) <= self._n_groups(problems) / 4

    def test_rebuild_allocates_no_group_slabs(self, problems, monkeypatch):
        shapes: list = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, *args, **kwargs):
                shapes.append(shape)
                return np.empty(shape, *args, **kwargs)

            def zeros(self, shape, *args, **kwargs):
                shapes.append(shape)
                return np.zeros(shape, *args, **kwargs)

        monkeypatch.setattr(batched_kernel, "np", CountingNumpy())
        get_backend("batched").run_batch(problems)
        assert 0 < len(shapes) < self._n_groups(problems) / 2


@pytest.mark.slow
class TestRandomizedEquivalence:
    """Hypothesis sweeps over (T, N, K, schedule, seeds).

    Scenario builds dominate the runtime, so examples are capped; the
    draw space still covers batch widths 1–4, grids 6²–12² and both
    schedules.  Any counterexample is a real kernel divergence — there is
    no tolerance to hide behind.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_trials=st.integers(min_value=1, max_value=4),
        n_nodes=st.integers(min_value=6, max_value=18),
        grid_size=st.integers(min_value=6, max_value=12),
        schedule=st.sampled_from(["sync", "serial"]),
    )
    def test_batched_matches_sequential(
        self, seed, n_trials, n_nodes, grid_size, schedule
    ):
        cfg = dc.replace(BASE_CFG, grid_size=grid_size, schedule=schedule)
        ms_list = [
            _measurements(seed * 7 + 2 * t, n=n_nodes, connected=False)
            for t in range(n_trials)
        ]
        shared_registry().clear()
        batched, sequential = _run_pair(ms_list, cfg)
        for b, s in zip(batched, sequential):
            _assert_bit_equal(b, s)

    @settings(max_examples=20, deadline=None)
    @given(
        grid_sizes=st.lists(
            st.sampled_from([6, 8, 10]), min_size=1, max_size=6
        )
    )
    def test_grouping_is_a_partition(self, grid_sizes):
        ms = _measurements(70)
        cfgs = [dc.replace(BASE_CFG, grid_size=g) for g in grid_sizes]
        with pytest.MonkeyPatch.context() as monkeypatch:
            # each group is homogeneous (checked inside the spy)
            groups = _kernel_groups(monkeypatch, cfgs, ms)
        flat = [i for idxs in groups for i in idxs]
        assert sorted(flat) == list(range(len(cfgs)))  # exhaustive
        # distinct groups have distinct keys — nothing co-batched
        sizes = [grid_sizes[idxs[0]] for idxs in groups]
        assert len(set(sizes)) == len(sizes)


# ---------------------------------------------------------------------- #
# the group estimate pass
def _assert_byte_equal(a, b):
    """Byte equality of everything the estimate pass feeds a result."""
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.localized_mask.tobytes() == b.localized_mask.tobytes()
    assert a.fallback_mask.tobytes() == b.fallback_mask.tobytes()
    assert (
        a.extras["covariances"].tobytes() == b.extras["covariances"].tobytes()
    )
    assert (a.n_iterations, a.converged) == (b.n_iterations, b.converged)
    ba, bb = a.extras["beliefs"], b.extras["beliefs"]
    assert list(ba) == list(bb)
    for u in ba:
        assert ba[u].tobytes() == bb[u].tobytes()
    assert len(a.trace) == len(b.trace)
    for sa, sb in zip(a.trace, b.trace):
        assert sa.tobytes() == sb.tobytes()


def _break_target(monkeypatch, target: BPProblem, runs: int | None):
    """Make ``BatchedBackend.run_batch`` (which ``run`` also goes
    through) hand back a NaN belief row for *target*: on its first *runs*
    runs, or on every run when *runs* is None.  Returns the reset hook
    that rearms the count between the batched and the pairwise pass."""
    key = target.log_phi.tobytes()
    seen = [0]
    original = batched_kernel.BatchedBackend.run_batch

    def run_batch(self, problems, tracer=NULL_TRACER):
        outcomes = original(self, problems, tracer)
        for p, o in zip(problems, outcomes):
            if p.log_phi.tobytes() == key:
                seen[0] += 1
                if runs is None or seen[0] <= runs:
                    o.beliefs[1] = np.nan
        return outcomes

    monkeypatch.setattr(batched_kernel.BatchedBackend, "run_batch", run_batch)
    return lambda: seen.__setitem__(0, 0)


class TestGroupEstimatePass:
    """``localize_batch`` runs the estimate pass once per kernel group over
    the stacked belief rows; every result must stay byte-equal to
    ``localize`` run pair by pair, including the rows that take a
    restart or a fallback."""

    SEEDS = (90, 91, 92)

    def _compare(self, cfgs, reset=lambda: None):
        ms_list = [_measurements(s) for s in self.SEEDS]
        pairs = [
            (GridBPLocalizer(config=c, tracer=Tracer()), ms)
            for c, ms in zip(cfgs, ms_list)
        ]
        batched = localize_batch(pairs)
        reset()
        for (loc, ms), b in zip(pairs, batched):
            single = GridBPLocalizer(config=loc.config, tracer=Tracer())
            s = single.localize(ms)
            _assert_byte_equal(b, s)
            # per-round records and timers are per-trial only at T == 1
            assert b.telemetry["counters"] == s.telemetry["counters"]
        return batched

    def _target(self, cfg):
        return _problem(_measurements(self.SEEDS[1]), cfg)

    def test_nan_row_gives_a_fallback_node(self, monkeypatch):
        reset = _break_target(monkeypatch, self._target(BASE_CFG), runs=None)
        batched = self._compare([BASE_CFG] * 3, reset)
        assert batched[1].fallback_mask.sum() == 1
        assert batched[1].telemetry["counters"]["damped_restarts"] == 1
        assert not batched[0].fallback_mask.any()
        assert not batched[2].fallback_mask.any()

    def test_damped_restart_inside_a_group(self, monkeypatch):
        reset = _break_target(monkeypatch, self._target(BASE_CFG), runs=1)
        batched = self._compare([BASE_CFG] * 3, reset)
        assert batched[1].telemetry["counters"]["damped_restarts"] == 1
        assert not any(r.fallback_mask.any() for r in batched)
        assert "damped_restarts" not in batched[0].telemetry["counters"]
        # the restart wrote its own beliefs' moments into its group rows
        restarted = batched[1]
        unknown = ~_measurements(self.SEEDS[1]).anchor_mask
        means, covs = restarted.extras["grid"].moments(
            np.stack(list(restarted.extras["beliefs"].values()))
        )
        assert restarted.estimates[unknown].tobytes() == means.tobytes()
        assert restarted.extras["covariances"][unknown].tobytes() == covs.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [{"estimator": "map"}, {"health_checks": False}, {"record_trace": True}],
    )
    def test_config_variants(self, overrides):
        cfg = dc.replace(BASE_CFG, **overrides)
        batched = self._compare([cfg] * 3)
        assert all(r.telemetry["meta"]["batch_size"] == 3 for r in batched)
        if cfg.record_trace:
            assert all(len(r.trace) == r.n_iterations + 1 for r in batched)

    def test_batch_spanning_two_grid_shapes(self):
        cfgs = [BASE_CFG, dc.replace(BASE_CFG, grid_size=10), BASE_CFG]
        batched = self._compare(cfgs)
        assert [r.telemetry["meta"]["batch_groups"] for r in batched] == [2] * 3
        assert [r.telemetry["meta"]["batch_size"] for r in batched] == [2, 1, 2]


def _block_spy(monkeypatch):
    """Record the problem count of every node-potential block pass."""
    sizes = []
    original = GridBPLocalizer._node_potential_block

    def spy(self, grid, problems):
        sizes.append(len(problems))
        return original(self, grid, problems)

    monkeypatch.setattr(GridBPLocalizer, "_node_potential_block", spy)
    return sizes


class TestNodePotentialBlocks:
    """``localize_batch`` builds node potentials as one block per group of
    pairs with equal solver class, grid, config, modalities and model
    fingerprints; every result must stay byte-equal to ``localize`` pair
    by pair, whatever the blocks mix."""

    def _mixed_pairs(self):
        grid = Grid2D(BASE_CFG.grid_size, BASE_CFG.grid_size, 1.0, 1.0)
        net12, ms12 = _observed(140, 12, anchor_ratio=0.25)
        _, ms25 = _observed(143, 25, anchor_ratio=0.2)
        deaf = [
            u for u in ms25.unknown_ids if not ms25.adjacency[u, ms25.anchor_ids].any()
        ]
        assert deaf and len(ms12.anchor_ids) != len(ms25.anchor_ids)
        n = ms12.n_nodes
        all_anchor = dc.replace(
            ms12, anchor_mask=np.ones(n, dtype=bool),
            anchor_positions_full=net12.positions,
        )
        no_anchor = dc.replace(ms12, anchor_mask=np.zeros(n, dtype=bool))
        gen = np.random.default_rng(7)
        belief = GridBeliefPrior(
            grid, {int(u): gen.random(grid.n_cells) for u in ms25.unknown_ids[::2]}
        )
        deployment = GaussianPrior([0.4, 0.6], 0.3)

        def loc(prior=None, **overrides):
            return GridBPLocalizer(prior=prior, config=dc.replace(BASE_CFG, **overrides))

        pairs = [
            # one block: sizes 12 / 25, deaf unknowns, all / no anchors,
            # belief / deployment / no prior
            (loc(), ms12),
            (loc(belief), ms25),
            (loc(), all_anchor),
            (loc(deployment), no_anchor),
            # a second σ and a second radio range: blocks of their own
            (loc(), _observed(142, 12, sigma=0.05)[1]),
            (loc(belief), _observed(141, 25, sigma=0.05, anchor_ratio=0.2)[1]),
            (loc(), _observed(144, 12, radio=0.5)[1]),
            (loc(deployment), _observed(145, 25, radio=0.5, anchor_ratio=0.2)[1]),
            # connectivity-only and bearing measurement sets
            (loc(), _observed(146, 12, ranging=False)[1]),
            (loc(belief), _observed(147, 25, ranging=False, anchor_ratio=0.2)[1]),
            (loc(), _observed(148, 12, bearings=True)[1]),
            (loc(deployment), _observed(149, 25, bearings=True, anchor_ratio=0.2)[1]),
        ]
        for flag in (
            "use_hop_bounds", "use_negative_evidence", "use_connectivity_in_ranging"
        ):
            pairs += [(loc(**{flag: False}), ms12), (loc(belief, **{flag: False}), ms25)]
        # the audit's reference solver keeps its own (baseline) potentials
        pairs.append((ReferenceGridBP(config=BASE_CFG), ms12))
        return pairs

    def test_mixed_batch_byte_equal_to_localize(self, monkeypatch):
        pairs = self._mixed_pairs()
        sizes = _block_spy(monkeypatch)
        batched = localize_batch(pairs)
        assert sizes == [4] + [2] * 7
        sizes.clear()
        for (loc, ms), b in zip(pairs, batched):
            _assert_byte_equal(b, loc.localize(ms))
        assert sizes == [1] * (len(pairs) - 1)  # the reference builds no block

    def test_block_rows_match_lone_builds(self):
        pairs = self._mixed_pairs()[:4]
        grid = Grid2D(BASE_CFG.grid_size, BASE_CFG.grid_size, 1.0, 1.0)
        preps = bnloc._prepare_blocks(pairs, grid)
        for (loc, ms), prep in zip(pairs, preps):
            log_phi = prep.problem.log_phi
            alone = loc._node_potentials_baseline(
                ms, grid, prep.prior, prep.radio, ms.unknown_ids
            )
            assert log_phi.tobytes() == alone.tobytes()
        assert [len(p.problem.log_phi) for p in preps] == [
            len(ms.unknown_ids) for _, ms in pairs
        ]


def _corrupt_link(ms, pick):
    """*ms* with a NaN range on its *pick*-th unknown-anchor link, and that
    link's unknown, whose evidence then excludes every cell."""
    links = [
        (int(u), int(a))
        for u in ms.unknown_ids
        for a in ms.anchor_ids
        if ms.adjacency[u, a]
    ]
    u, a = links[pick]
    obs = ms.observed_distances.copy()
    obs[u, a] = obs[a, u] = np.nan
    return dc.replace(ms, observed_distances=obs), u


class TestNodePotentialBlockErrors:
    """A pair whose evidence and prior exclude each other fails the batch
    with the error the pair-by-pair loop raises first; through
    ``execute_batch`` only that item fails."""

    def _pairs(self):
        ok_a = _observed(150, 12)[1]
        ok_b = _observed(151, 12, sigma=0.05)[1]
        bad_b, node_b = _corrupt_link(_observed(152, 12, sigma=0.05)[1], 0)
        bad_a, node_a = _corrupt_link(_observed(153, 14)[1], -1)
        assert node_a != node_b
        # two blocks ({0, 3} at σ = 0.03, {1, 2} at σ = 0.05); the
        # sequential loop meets pair 2 before pair 3
        return [(GridBPLocalizer(config=BASE_CFG), ms) for ms in (ok_a, ok_b, bad_b, bad_a)], node_b

    def test_raises_the_first_sequential_error(self):
        pairs, node = self._pairs()
        with pytest.raises(ValueError) as sequential:
            for loc, ms in pairs:
                loc.localize(ms)
        assert f"node {node}: evidence and prior are mutually exclusive" in str(
            sequential.value
        )
        with pytest.raises(ValueError) as batched:
            localize_batch(pairs)
        assert str(batched.value) == str(sequential.value)

    def test_execute_batch_isolates_the_item(self):
        from repro.serve.workers import execute_batch

        pairs, node = self._pairs()
        items = [
            {"measurements": ms, "config": loc.config, "include_beliefs": True}
            for loc, ms in pairs
        ]
        payloads = execute_batch(items)
        assert [p["ok"] for p in payloads] == [True, True, False, False]
        assert f"node {node}:" in payloads[2]["error"]
        for item, payload in zip(items[:2], payloads):
            (solo,) = execute_batch([item])
            assert _payload_bytes(payload) == _payload_bytes(solo)


class _ArrayRadio(UnitDiskRadio):
    """A unit disk carrying array state, so it does not fingerprint and its
    pair is a preparation block of one."""

    def __init__(self, range_):
        super().__init__(range_)
        self.state = np.zeros(1)


class TestOneSolvePath:
    """``localize`` is a kernel group of one: it runs the preparation
    blocks and the group solve ``localize_batch`` runs per group."""

    def test_localize_is_one_block_pass_and_one_group_solve(self, monkeypatch):
        prepared, solved = [], []
        prepare, solve = bnloc._prepare_blocks, bnloc._solve_group

        def spy_prepare(pairs, grid):
            prepared.append(len(pairs))
            return prepare(pairs, grid)

        def spy_solve(solvers, preps, kernel, n_groups=0):
            solved.append((len(preps), kernel.name, n_groups))
            return solve(solvers, preps, kernel, n_groups)

        monkeypatch.setattr(bnloc, "_prepare_blocks", spy_prepare)
        monkeypatch.setattr(bnloc, "_solve_group", spy_solve)
        result = GridBPLocalizer(config=BASE_CFG, tracer=Tracer()).localize(
            _measurements(30)
        )
        assert prepared == [1] and solved == [(1, "batched", 0)]
        meta = result.telemetry["meta"]
        assert "batch_size" not in meta and "batch_groups" not in meta

    @pytest.mark.parametrize("schedule", ["sync", "serial"])
    def test_reference_localize_runs_the_reference_kernel(self, schedule, monkeypatch):
        runs = []
        for name in ("reference", "batched"):
            kernel = get_backend(name)
            original = kernel.run

            def counted(problem, tracer=NULL_TRACER, name=name, original=original):
                runs.append(name)
                return original(problem, tracer)

            monkeypatch.setattr(kernel, "run", counted)
        ms = _measurements(31)
        cfg = dc.replace(BASE_CFG, schedule=schedule)
        ReferenceGridBP(config=cfg).localize(ms)
        assert runs == ["reference"]
        runs.clear()
        GridBPLocalizer(config=cfg).localize(ms)
        assert runs == [kernel_for(cfg).name]

    @pytest.mark.parametrize("lone_first", [True, False], ids=["lone-first", "block-first"])
    def test_lone_and_block_failures_raise_the_first_sequential_error(
        self, lone_first
    ):
        ok = _observed(154, 12)[1]
        bad_block, node_block = _corrupt_link(_observed(155, 14)[1], -1)
        bad_lone, node_lone = _corrupt_link(_observed(156, 12)[1], 0)
        assert node_block != node_lone
        plain = GridBPLocalizer(config=BASE_CFG)
        lone = GridBPLocalizer(radio=_ArrayRadio(bad_lone.radio_range), config=BASE_CFG)
        # the block {ok, bad_block} is met first in the batch whatever the
        # order; the lone pair sits before or after its failing member
        bad = [(lone, bad_lone), (plain, bad_block)]
        pairs = [(plain, ok)] + (bad if lone_first else bad[::-1])
        with pytest.raises(ValueError) as sequential:
            for loc, ms in pairs:
                loc.localize(ms)
        node = node_lone if lone_first else node_block
        assert f"node {node}: evidence and prior" in str(sequential.value)
        with pytest.raises(ValueError) as batched:
            localize_batch(pairs)
        assert str(batched.value) == str(sequential.value)


def _payload_bytes(payload):
    """A payload with every array replaced by its dtype, shape and bytes."""
    def enc(v):
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return (v.dtype.str, v.shape, v.tobytes())
        return v

    return enc(payload)


def _edge_free(seed, n=12):
    """A measurement set with one unknown, so no unknown-unknown edge."""
    net, ms = _observed(seed, n)
    anchors = np.ones(n, dtype=bool)
    anchors[ms.unknown_ids[0]] = False
    out = dc.replace(ms, anchor_mask=anchors, anchor_positions_full=net.positions)
    assert not len(_prepared_alone(GridBPLocalizer(config=BASE_CFG), out).problem.edges)
    return out


def _prepared_alone(loc, ms):
    grid = Grid2D(loc.config.grid_size, loc.config.grid_size, ms.width, ms.height)
    return loc._prepare(ms, grid)


def _same_csr(a, b):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))
    ) and a.shape == b.shape


class TestEdgeOperatorBlocks:
    """``localize_batch`` builds the edge operators of a group as one
    block (:meth:`GridBPLocalizer._edge_operator_block`); ``localize`` runs
    the same pass over a block of one.  Every result stays byte-equal to
    pair-by-pair ``localize``, and every problem's operators are the CSR
    objects (shared cache) or arrays (private cache, connectivity,
    bearings) of its block of one, in the same order."""

    def _batches(self):
        loc = lambda **kw: GridBPLocalizer(config=dc.replace(BASE_CFG, **kw))
        ranging = [
            _observed(160, 12)[1], _observed(161, 25, anchor_ratio=0.2)[1],
            _edge_free(162), _observed(163, 14)[1],
        ]
        return {
            "ranging": [(loc(), ms) for ms in ranging],
            "private": [(loc(shared_cache=False), ms) for ms in ranging],
            "connectivity": [
                (loc(), _observed(s, n, ranging=False)[1])
                for s, n in ((164, 12), (165, 25), (166, 14))
            ],
            "bearings": [
                (loc(), _observed(s, n, bearings=True)[1])
                for s, n in ((167, 12), (168, 25), (169, 14))
            ],
        }

    @pytest.mark.parametrize(
        "case", ["ranging", "private", "connectivity", "bearings"]
    )
    def test_batch_byte_equal_to_localize(self, case, monkeypatch):
        pairs = self._batches()[case]
        sizes = []
        original = GridBPLocalizer._edge_operator_block

        def spy(self, grid, problems):
            sizes.append(len(problems))
            return original(self, grid, problems)

        monkeypatch.setattr(GridBPLocalizer, "_edge_operator_block", spy)
        batched = localize_batch(pairs)
        assert sizes == [len(pairs)]
        for (loc, ms), b in zip(pairs, batched):
            a = loc.localize(ms)
            _assert_byte_equal(b, a)
            assert (b.messages_sent, b.bytes_sent) == (a.messages_sent, a.bytes_sent)
        assert sizes == [len(pairs)] + [1] * len(pairs)

    @pytest.mark.parametrize(
        "case", ["ranging", "private", "connectivity", "bearings"]
    )
    def test_ops_are_those_of_a_block_of_one(self, case):
        pairs = self._batches()[case]
        grid = Grid2D(BASE_CFG.grid_size, BASE_CFG.grid_size, 1.0, 1.0)
        preps = bnloc._prepare_blocks(pairs, grid)
        for (loc, ms), prep in zip(pairs, preps):
            alone = loc._prepare(ms, grid)
            assert prep.problem.edges == alone.problem.edges
            assert prep.anchor_msgs == alone.anchor_msgs
            assert len(prep.problem.ops) == len(alone.problem.ops)
            for got, want in zip(prep.problem.ops, alone.problem.ops):
                if case == "ranging":
                    assert got[0] is want[0] and got[1] is want[1]
                else:
                    assert _same_csr(got[0], want[0]) and _same_csr(got[1], want[1])
        assert any(not p.problem.edges for p in preps) == (case in ("ranging", "private"))

    def test_trace_keeps_each_solvers_peak_factor_gauge(self):
        pairs = [
            (GridBPLocalizer(config=BASE_CFG, tracer=Tracer()), ms)
            for _, ms in self._batches()["ranging"]
        ]
        batched = localize_batch(pairs)
        for (loc, ms), b in zip(pairs, batched):
            prep = _prepared_alone(GridBPLocalizer(config=BASE_CFG), ms)
            gauges = b.telemetry["gauges"]
            if prep.problem.ops:
                assert gauges["peak_factor_nnz"] == max(
                    fwd.nnz for fwd, _ in prep.problem.ops
                )
            else:
                assert "peak_factor_nnz" not in gauges


def _corrupt_edge(ms, value):
    """*ms* with *value* as the range of its first unknown-unknown edge."""
    unknown = ~ms.anchor_mask
    i, j = next((int(i), int(j)) for i, j in ms.edges() if unknown[i] and unknown[j])
    obs = ms.observed_distances.copy()
    obs[i, j] = obs[j, i] = value
    return dc.replace(ms, observed_distances=obs)


class TestEdgeOperatorBlockErrors:
    """A pair with a NaN or negative unknown-unknown range fails the batch
    with the error the pair-by-pair loop raises first; through
    ``execute_batch`` only that item fails."""

    def _pairs(self):
        ok_a = _observed(170, 12)[1]
        ok_b = _observed(171, 12, sigma=0.05)[1]
        bad_b = _corrupt_edge(_observed(172, 12, sigma=0.05)[1], np.nan)
        bad_a = _corrupt_edge(_observed(173, 14)[1], -0.25)
        # two groups ({0, 3} at σ = 0.03, {1, 2} at σ = 0.05); the
        # sequential loop meets pair 2 before pair 3
        return [(GridBPLocalizer(config=BASE_CFG), ms) for ms in (ok_a, ok_b, bad_b, bad_a)]

    def test_raises_the_first_sequential_error(self):
        pairs = self._pairs()
        with pytest.raises(ValueError) as sequential:
            for loc, ms in pairs:
                loc.localize(ms)
        assert "observed distance must be finite and >= 0, got nan" in str(
            sequential.value
        )
        with pytest.raises(ValueError) as batched:
            localize_batch(pairs)
        assert str(batched.value) == str(sequential.value)
        with pytest.raises(ValueError, match="got -0.25"):
            localize_batch(pairs[3:])

    def test_execute_batch_isolates_the_item(self):
        from repro.serve.workers import execute_batch

        pairs = self._pairs()
        items = [
            {"measurements": ms, "config": loc.config, "include_beliefs": True}
            for loc, ms in pairs
        ]
        payloads = execute_batch(items)
        assert [p["ok"] for p in payloads] == [True, True, False, False]
        assert "got nan" in payloads[2]["error"]
        assert "got -0.25" in payloads[3]["error"]
        for item, payload in zip(items[:2], payloads):
            (solo,) = execute_batch([item])
            assert _payload_bytes(payload) == _payload_bytes(solo)


@pytest.mark.perf
class TestEdgeOperatorRouting:
    """A group's edge operators are one block: the shared registry is
    consulted once per group and the ranging cache looks up (or builds)
    each distinct quantized key once, however many edges share it."""

    def test_one_lookup_per_distinct_key_per_group(self, monkeypatch):
        from repro.core.potentials import PotentialCacheRegistry, RangingPotentialCache

        ms_list = [_observed(180 + s, 14)[1] for s in range(6)]
        pairs = [(GridBPLocalizer(config=BASE_CFG), ms) for ms in ms_list]
        grid = Grid2D(BASE_CFG.grid_size, BASE_CFG.grid_size, 1.0, 1.0)
        quantum = RangingPotentialCache(grid, ms_list[0].ranging).quantum
        keys = {
            int(round(float(ms.observed_distances[i, j]) / quantum))
            for ms in ms_list
            for i, j in ms.edges()
            if not (ms.anchor_mask[i] or ms.anchor_mask[j])
        }
        n_edges = sum(
            len(_prepared_alone(loc, ms).problem.edges) for loc, ms in pairs
        )
        assert len(keys) < n_edges  # edges do share keys
        localize_batch(pairs)  # warm the shared cache
        registry, lookups = [], []
        original_registry = PotentialCacheRegistry.ranging_cache
        original_lookup = RangingPotentialCache._lookup

        def counted_registry(self, *args, **kwargs):
            registry.append(1)
            return original_registry(self, *args, **kwargs)

        def counted_lookup(self, key):
            lookups.append(key)
            return original_lookup(self, key)

        monkeypatch.setattr(PotentialCacheRegistry, "ranging_cache", counted_registry)
        monkeypatch.setattr(RangingPotentialCache, "_lookup", counted_lookup)
        localize_batch(pairs)
        assert registry == [1]
        assert sorted(lookups) == sorted(keys)


# ---------------------------------------------------------------------- #
# the kernel plan, built from index arrays
def _uniform_ops(problem, make):
    """*problem* with each edge's operator pair replaced by ``make(op)``
    (applied once per distinct operator, so shared operators stay
    shared)."""
    made: dict[int, object] = {}
    ops = [
        tuple(made.setdefault(id(op), make(op)) for op in pair)
        for pair in problem.ops
    ]
    return dc.replace(problem, ops=ops)


@pytest.mark.parametrize("record_trace", [False, True])
class TestKernelPlan:
    """The batched kernel plans a batch from one edge array and one
    ``np.unique`` over operator ids; every plan shape must stay byte-equal
    to the plain loop (``run_bp_baseline``), traced rounds included."""

    def _problems(self, record_trace, seeds=(150, 151, 152)):
        cfg = dc.replace(BASE_CFG, record_trace=record_trace)
        return [_problem(_measurements(s), cfg) for s in seeds]

    def test_dense_operator_slots(self, record_trace):
        problems = self._problems(record_trace)
        problems[1] = _uniform_ops(problems[1], lambda op: op.toarray())
        ops = problems[2].ops
        ops[1::2] = [(f.toarray(), b.toarray()) for f, b in ops[1::2]]
        _assert_batch_matches_plain_loop(problems)

    def test_all_edgeless_batch(self, record_trace):
        problems = [
            dc.replace(p, edges=[], ops=[]) for p in self._problems(record_trace)
        ]
        outs = _assert_batch_matches_plain_loop(problems)
        assert all(o.converged and o.n_iterations == 0 for o in outs)

    def test_one_csr_shared_across_trials(self, record_trace):
        problems = self._problems(record_trace)
        shared = problems[0].ops[0][0]
        problems = [_uniform_ops(p, lambda op: shared) for p in problems]
        assert len({id(op) for p in problems for pair in p.ops for op in pair}) == 1
        _assert_batch_matches_plain_loop(problems)

    def test_first_appearance_order_differs_from_id_order(self, record_trace):
        problems = self._problems(record_trace)
        distinct = list(
            {id(op): op for p in problems for pair in p.ops for op in pair}.values()
        )
        # fresh copies whose ids fall as their operators first appear
        copies = sorted((op.copy() for op in distinct), key=id, reverse=True)
        by_id = {id(op): c for op, c in zip(distinct, copies)}
        problems = [_uniform_ops(p, lambda op: by_id[id(op)]) for p in problems]
        seen = list(
            {id(op): None for p in problems for pair in p.ops for op in pair}
        )
        assert len(seen) > 2 and seen == sorted(seen, reverse=True)
        _assert_batch_matches_plain_loop(problems)


# ---------------------------------------------------------------------- #
# group result assembly
def _break_targets(monkeypatch, targets: list):
    """Like :func:`_break_target` for several ``(problem, runs)`` targets
    at once: a NaN last belief row for a target on its first *runs* runs
    (every run when None).  Returns the reset hook."""
    runs = {p.log_phi.tobytes(): r for p, r in targets}
    seen = dict.fromkeys(runs, 0)
    original = batched_kernel.BatchedBackend.run_batch

    def run_batch(self, problems, tracer=NULL_TRACER):
        outcomes = original(self, problems, tracer)
        for p, o in zip(problems, outcomes):
            key = p.log_phi.tobytes()
            if key in runs:
                seen[key] += 1
                if runs[key] is None or seen[key] <= runs[key]:
                    o.beliefs[-1] = np.nan
        return outcomes

    monkeypatch.setattr(batched_kernel.BatchedBackend, "run_batch", run_batch)
    return lambda: seen.update(dict.fromkeys(seen, 0))


def _result_arrays(result):
    return (
        result.estimates,
        result.localized_mask,
        result.fallback_mask,
        result.extras["covariances"],
    )


class TestGroupAssembly:
    """``localize_batch`` assembles a kernel group's estimates, masks,
    covariances and fallback flags with one scatter and hands each result
    row-slice views; a fallback node is written into its problem's rows,
    and a restarted problem assembles its own."""

    def _mixed(self):
        # node counts 14, 10, 12 (edge-less) and 14, all one kernel group
        return [
            _measurements(90),
            _measurements(93, n=10),
            _edge_free(95),
            _measurements(92),
        ]

    def test_mixed_group_byte_equal_to_pair_by_pair(self, monkeypatch):
        ms_list = self._mixed()
        reset = _break_targets(
            monkeypatch,
            [
                (_problem(ms_list[0], BASE_CFG), 1),  # a damped restart
                # a fallback node with no restart (no edges to restart)
                (_problem(ms_list[2], BASE_CFG), None),
                (_problem(ms_list[3], BASE_CFG), None),  # restart, then fallback
            ],
        )
        pairs = [(GridBPLocalizer(config=BASE_CFG, tracer=Tracer()), ms) for ms in ms_list]
        batched = localize_batch(pairs)
        assert {r.telemetry["meta"]["batch_size"] for r in batched} == {4}
        reset()
        for (loc, ms), b in zip(pairs, batched):
            s = GridBPLocalizer(config=loc.config, tracer=Tracer()).localize(ms)
            _assert_byte_equal(b, s)
            assert b.telemetry["counters"] == s.telemetry["counters"]
        assert batched[0].telemetry["counters"]["damped_restarts"] == 1
        assert "damped_restarts" not in batched[2].telemetry["counters"]
        assert batched[2].fallback_mask.sum() == 1
        assert batched[3].fallback_mask.sum() == 1
        assert not any(r.fallback_mask.any() for r in batched[:2])

    def test_results_do_not_alias_each_other(self):
        ms_list = self._mixed()
        batched = localize_batch([(GridBPLocalizer(config=BASE_CFG), ms) for ms in ms_list])
        for target in batched:
            before = [
                [a.copy() for a in _result_arrays(r)] for r in batched if r is not target
            ]
            for a, fill in zip(_result_arrays(target), (-1.0, False, True, 7.0)):
                a[...] = fill
            after = [_result_arrays(r) for r in batched if r is not target]
            for old, new in zip(before, after):
                for x, y in zip(old, new):
                    assert x.tobytes() == y.tobytes()


@pytest.mark.perf
class TestBatchCallBudget:
    """One 32-item stream batch on ``InlineExecutor`` pays its
    orchestration per batch: one ``issparse`` call per distinct operator
    in the kernel plan, no per-row ``np.dot`` in the prior build, and
    one result scatter for the group plus one per restarted item (never
    ``Localizer._result_skeleton``)."""

    @pytest.fixture(scope="class")
    def batch(self):
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
        for epoch in fleet_events(fleet)[: fleet.n_networks]:
            state = runtime._state(epoch.network_id)
            state.prior = GridBeliefPrior(
                runtime._grid,
                {n: gen.random(k) for n in range(epoch.measurements.n_nodes)},
                diffusion_sigma=runtime.config.motion_sigma,
            )
            pairs.append((state, epoch))
        return runtime, pairs

    @staticmethod
    def _spy_kernel(monkeypatch, break_rows=None):
        """Record the batched kernel's problems; with *break_rows*
        (``{batch position: runs}``), NaN a belief row of those problems
        as :func:`_break_targets` does."""
        calls: list = []
        targets: dict = {}
        original = batched_kernel.BatchedBackend.run_batch

        def run_batch(self, problems, tracer=NULL_TRACER):
            if not calls and break_rows:
                targets.update({id(problems[i].log_phi): r for i, r in break_rows.items()})
            calls.append(list(problems))
            outcomes = original(self, problems, tracer)
            for p, o in zip(problems, outcomes):
                runs = targets.get(id(p.log_phi), 0)
                if runs is None or runs > 0:
                    o.beliefs[1] = np.nan
                    if runs is not None:
                        targets[id(p.log_phi)] = runs - 1
            return outcomes

        monkeypatch.setattr(batched_kernel.BatchedBackend, "run_batch", run_batch)
        return calls

    def test_one_issparse_call_per_distinct_operator(self, batch, monkeypatch):
        from repro.stream import InlineExecutor

        runtime, pairs = batch
        calls = self._spy_kernel(monkeypatch)
        checks = []
        in_kernel = [False]
        issparse = sparse.issparse
        plan = batched_kernel._run_batch_sync

        def counted(x):
            if in_kernel[0]:
                checks.append(id(x))
            return issparse(x)

        def planned(*args):
            in_kernel[0] = True
            try:
                return plan(*args)
            finally:
                in_kernel[0] = False

        monkeypatch.setattr(sparse, "issparse", counted)
        monkeypatch.setattr(batched_kernel, "_run_batch_sync", planned)
        payloads = InlineExecutor().solve(runtime._items(pairs))
        assert all(p["ok"] for p in payloads)
        ((problems),) = calls
        assert len(problems) == 32
        distinct = {id(op) for p in problems for pair in p.ops for op in pair}
        assert sorted(checks) == sorted(distinct)

    def test_prior_build_runs_no_per_row_dot(self, batch, monkeypatch):
        from repro.stream import InlineExecutor

        runtime, pairs = batch
        payloads = InlineExecutor().solve(runtime._items(pairs))
        dots, matmuls = [], []
        dot, matmul = np.dot, np.matmul
        monkeypatch.setattr(np, "dot", lambda *a, **k: dots.append(1) or dot(*a, **k))
        monkeypatch.setattr(
            np, "matmul", lambda *a, **k: matmuls.append(1) or matmul(*a, **k)
        )
        priors = runtime._next_priors(payloads)
        assert len(priors) == 32 and all(p is not None for p in priors)
        assert dots == [] and matmuls == [1]

    @pytest.mark.parametrize(
        "break_rows", [{}, {3: None, 7: 1}], ids=["healthy", "fallback-and-restart"]
    )
    def test_results_assembled_by_one_group_scatter(
        self, batch, monkeypatch, break_rows
    ):
        from repro.core import bnloc
        from repro.core.result import Localizer
        from repro.stream import InlineExecutor

        runtime, pairs = batch
        self._spy_kernel(monkeypatch, break_rows)
        skeletons, scattered = [], []
        skeleton, group_rows = Localizer._result_skeleton, bnloc._group_rows

        def counted_skeleton(ms):
            skeletons.append(ms)
            return skeleton(ms)

        def counted_rows(preps, est):
            scattered.append([p.ms for p in preps])
            return group_rows(preps, est)

        monkeypatch.setattr(Localizer, "_result_skeleton", staticmethod(counted_skeleton))
        monkeypatch.setattr(bnloc, "_group_rows", counted_rows)
        payloads = InlineExecutor().solve(runtime._items(pairs))
        # the group's scatter only: both broken items restart and write
        # their new rows into it; item 3 stays broken and keeps a fallback
        # node
        assert skeletons == []
        assert len(scattered) == 1 and len(scattered[0]) == 32
        if break_rows:
            assert payloads[3]["fallback_mask"].sum() == 1
            assert not payloads[7]["fallback_mask"].any()
