"""The paper's core method: cooperative localization as Bayesian-network
inference over a grid-discretized position space, with pre-knowledge priors.

Model
-----
Each unknown node *i* gets a categorical variable ``X_i`` over the ``K``
cells of a :class:`~repro.core.grid.Grid2D`.  The Bayesian network is the
usual pairwise construction:

* node potential  φ_i(x) = prior_i(x) · ∏_{a ∈ anchors heard} p(obs_ia | x)
  · ∏_{a ∈ anchors not heard} (1 − p_detect(‖x − a‖))    (negative evidence)
* edge potential  ψ_ij(x, y) = p(obs_ij, link | ‖x − y‖) for each pair of
  connected unknowns.

Inference is synchronous loopy sum-product BP — exactly the computation a
real network performs distributively, each node broadcasting its outgoing
messages to neighbors once per round.  Communication accounting (shared
with :class:`~repro.parallel.messaging.DistributedBPSimulator` and the E7
cost/accuracy experiment): unknowns exchange belief messages of ``8·K``
bytes (a ``K``-vector of float64), ``2·|edges|`` of them per round, while
an anchor broadcast carries only its own position (``2·8`` bytes).

Pre-knowledge enters solely through ``prior``; running the *same* inference
with :class:`~repro.priors.deployment.UniformPrior` is the paper's
"without pre-knowledge" arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.core.grid import Grid2D
from repro.core.health import (
    fallback_position,
    healthy_belief_rows,
    residuals_diverging,
)
from repro.core.potentials import (
    RangingPotentialCache,
    _fingerprint,
    _normalize_matrix,
    anchor_bearing_potential,
    anchor_bearing_rows,
    anchor_connectivity_potential,
    anchor_ranging_potential,
    connectivity_potential,
    negative_anchor_potential,
    pairwise_bearing_potential,
    ranging_potential_rows,
    shared_registry,
)
from repro.core.result import LocalizationResult, Localizer
from repro.kernels.base import (
    BPOutcome,
    BPProblem,
    KernelBackend,
    kernel_for,
    shape_key,
)
from repro.measurement.measurements import MeasurementSet
from repro.network.radio import RadioModel, UnitDiskRadio
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.priors.deployment import UniformPrior
from repro.utils.rng import RNGLike

__all__ = ["GridBPLocalizer", "GridBPConfig", "localize_batch"]

#: bytes of one anchor broadcast — the anchor's own position (2 float64).
#: Unknown-unknown belief messages cost ``8·K`` bytes instead; both
#: solvers and the E7 benchmark share this convention.
_ANCHOR_BROADCAST_BYTES = 2 * 8


@dataclass
class GridBPConfig:
    """Tunables of :class:`GridBPLocalizer`.

    Attributes
    ----------
    grid_size:
        Cells per axis (``K = grid_size²`` states per node) — the E10
        resolution-ablation knob.
    max_iterations, tol, damping:
        Loopy-BP schedule: synchronous rounds, stop when the max message
        change drops below *tol*; *damping* interpolates toward the old
        message (0 = undamped).  Mild damping (the 0.15 default)
        counteracts the overconfidence loopy BP develops on dense
        connectivity graphs.
    use_negative_evidence:
        Fold silent anchors into the node potentials.
    use_hop_bounds:
        Fold multi-hop anchor reachability into the node potentials: a
        node *h* hops from anchor *a* cannot be farther than ``h·r`` from
        it.  This connectivity pre-knowledge anchors clusters of unknowns
        that hear no anchor directly, suppressing the translated/mirrored
        joint modes loopy BP can otherwise lock into.
    use_connectivity_in_ranging:
        Multiply the link-detection probability into ranging potentials
        (observing a link is evidence of proximity in itself).
    cell_blur_fraction:
        Quantization-marginalization scale as a fraction of the cell
        diagonal (``blur_sigma = fraction × cell_diagonal``).  Prevents
        potential aliasing when ranging noise is narrower than a cell;
        0 disables.
    schedule:
        ``"sync"`` — flooding: all messages computed from the previous
        round (what a distributed deployment does, one broadcast per
        round); ``"serial"`` — Gauss–Seidel: messages commit immediately
        within a sweep, so information crosses the network in one
        iteration (the natural centralized schedule; usually converges in
        fewer iterations).  The schedule also picks the kernel
        (:func:`repro.kernels.kernel_for`): synchronous sum-product runs
        on the batched kernel, serial and max-product on the plain
        per-node loop.
    estimator:
        ``"mmse"`` (posterior mean — minimizes expected squared error) or
        ``"map"`` (best cell center).
    max_product:
        Run max-product instead of sum-product message passing: beliefs
        become max-marginals and the per-node argmax approximates the
        *joint* MAP configuration (use with ``estimator="map"``).  Useful
        when a single consistent configuration matters more than
        per-node expected error.
    record_trace:
        Store the per-iteration estimates (needed by E6, costs memory).
    health_checks:
        Graceful-degradation guards (on by default): non-finite messages
        are repaired to uniform, a numerically broken or diverging run is
        retried once with damping raised to *restart_damping*, and nodes
        whose belief stays broken get a baseline fallback estimate
        (recorded in ``LocalizationResult.fallback_mask``) instead of
        NaN.  The guards only observe on healthy runs — results are
        bit-identical with the checks on or off unless something actually
        breaks.
    restart_damping:
        Damping used by the automatic restart (must exceed the normal
        *damping* to be useful).
    audit:
        Runtime invariant guards (:mod:`repro.audit`): ``None`` defers to
        the ``REPRO_AUDIT`` environment toggle, ``"off"`` disables,
        ``"warn"`` reports violations as warnings (and through the
        tracer), ``"raise"`` escalates to
        :class:`~repro.audit.AuditError`.  Observation-only and zero-cost
        when off; auditing never changes solver outputs.
    shared_cache:
        Reuse ranging-potential kernels and grid distance matrices from
        the process-level :func:`~repro.core.potentials.shared_registry`
        across solver runs with identical (grid, ranging, radio, blur)
        parameters — the common case inside Monte-Carlo sweeps.  Warm
        runs are bit-identical to cold ones; disable to force per-run
        rebuilds.
    """

    grid_size: int = 20
    max_iterations: int = 15
    tol: float = 1e-4
    damping: float = 0.15
    use_negative_evidence: bool = True
    use_hop_bounds: bool = True
    use_connectivity_in_ranging: bool = True
    cell_blur_fraction: float = 1.0 / 6.0
    schedule: str = "sync"
    estimator: str = "mmse"
    max_product: bool = False
    record_trace: bool = False
    health_checks: bool = True
    restart_damping: float = 0.5
    shared_cache: bool = True
    audit: str | None = None

    def __post_init__(self) -> None:
        if self.audit not in (None, "off", "warn", "raise"):
            raise ValueError(
                f"audit must be None, 'off', 'warn', or 'raise', got {self.audit!r}"
            )
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")
        if self.cell_blur_fraction < 0:
            raise ValueError("cell_blur_fraction must be non-negative")
        if self.schedule not in ("sync", "serial"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.estimator not in ("mmse", "map"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not (0.0 <= self.restart_damping < 1.0):
            raise ValueError("restart_damping must lie in [0, 1)")


class _Estimates(NamedTuple):
    """The estimate pass over a ``(R, K)`` block of belief rows: per row,
    the health mask, the point estimate and the covariance (both NaN on
    unhealthy rows)."""

    healthy: np.ndarray
    points: np.ndarray
    covariances: np.ndarray

    def rows(self, start: int, stop: int) -> "_Estimates":
        return _Estimates(*(a[start:stop] for a in self))


def _estimate_rows(
    grid: Grid2D, beliefs: np.ndarray, cfg: GridBPConfig
) -> _Estimates:
    """The one estimate code path: health mask, MMSE or MAP point and
    covariance of every row of *beliefs*.

    Each output row depends on its belief row alone (health is row-wise,
    :meth:`Grid2D.moments` is bit-equal row by row whatever the block
    size), so one pass over the stacked rows of a kernel group equals
    each problem's own pass over its rows.
    """
    n = len(beliefs)
    healthy = (
        healthy_belief_rows(beliefs) if cfg.health_checks else np.ones(n, dtype=bool)
    )
    block = beliefs if healthy.all() else beliefs[healthy]
    points = np.full((n, 2), np.nan)
    covariances = np.full((n, 2, 2), np.nan)
    means, covariances[healthy] = grid.moments(block)
    points[healthy] = (
        means if cfg.estimator == "mmse" else grid.centers[np.argmax(block, axis=1)]
    )
    return _Estimates(healthy, points, covariances)


@dataclass
class _Prepared:
    """Output of :func:`_prepare_blocks`: the kernel-ready
    :class:`~repro.kernels.BPProblem` plus the context the estimate /
    accounting stage needs after the BP loop ran."""

    ms: MeasurementSet
    grid: Grid2D
    prior: PositionPrior
    radio: RadioModel
    unknowns: np.ndarray
    anchor_msgs: int
    problem: BPProblem


class GridBPLocalizer(Localizer):
    """Bayesian-network cooperative localization on a position grid.

    Parameters
    ----------
    prior:
        The pre-knowledge.  Defaults to the uninformative
        :class:`~repro.priors.deployment.UniformPrior`.
    radio:
        Link model assumed by the inference (for detection and negative-
        evidence probabilities).  Defaults to a unit disk at the
        measurement set's ``radio_range``; pass the true generating model
        for matched inference.
    config:
        Algorithm settings (see :class:`GridBPConfig`).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  Records per-iteration
        residuals / message counts, phase timers, and peak factor sizes;
        the exported dict is attached to the result as ``telemetry``.
        The default no-op tracer leaves the hot path untouched and the
        beliefs bit-identical to an untraced run.
    """

    name = "grid-bp"

    def __init__(
        self,
        prior: PositionPrior | None = None,
        radio: RadioModel | None = None,
        config: GridBPConfig | None = None,
        tracer: NullTracer | None = None,
    ) -> None:
        self.prior = prior
        self.radio = radio
        self.config = config if config is not None else GridBPConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------ #
    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        """Localize one measurement set: a kernel group of one, prepared
        and solved by the code each group of :func:`localize_batch` runs,
        on this solver's own kernel (:meth:`_kernel`)."""
        tracer = self.tracer
        with tracer.timer("localize"):
            (result,) = _solve_group(
                [self], [self._prepare(measurements)], self._kernel()
            )
        if tracer.enabled:
            result.telemetry = tracer.snapshot()
        return result

    def localize_batch(
        self, measurements_list: list[MeasurementSet], rng: RNGLike = None
    ) -> list[LocalizationResult]:
        """Localize several measurement sets with this solver, stacking
        compatible ones into batched kernel passes.

        Results are bit-identical to calling :meth:`localize` on each set
        in turn (grid BP is deterministic — *rng* is accepted for
        interface symmetry and ignored).  See the module-level
        :func:`localize_batch` for mixed-prior batches and the batching /
        fallback rules.
        """
        return localize_batch([(self, ms) for ms in measurements_list])

    def _kernel(self) -> KernelBackend:
        """The kernel :meth:`localize` runs: the one the config's schedule
        picks (:func:`repro.kernels.kernel_for`)."""
        return kernel_for(self.config)

    def _models(self, ms: MeasurementSet) -> tuple[PositionPrior, RadioModel]:
        """The prior and radio a solve of *ms* uses: the solver's own, else
        the uniform prior and a unit disk at the set's radio range."""
        prior = self.prior if self.prior is not None else UniformPrior(ms.width, ms.height)
        radio = self.radio if self.radio is not None else UnitDiskRadio(ms.radio_range)
        return prior, radio

    def _prepare(
        self, measurements: MeasurementSet, grid: Grid2D | None = None
    ) -> "_Prepared":
        """Everything before the BP loop for one problem:
        :func:`_prepare_blocks` over a block of one, on *grid* (which must
        match the config's grid size and the field extent) or a fresh
        :class:`Grid2D`."""
        if grid is None:
            g = self.config.grid_size
            grid = Grid2D(g, g, measurements.width, measurements.height)
        return _prepare_blocks([(self, measurements)], grid)[0]

    def _assemble(
        self,
        ms: MeasurementSet,
        grid: Grid2D,
        prior: PositionPrior,
        radio: RadioModel,
        unknowns: np.ndarray,
        log_phi: np.ndarray,
        edge_ops: tuple[list, list, int],
        tracer: NullTracer,
    ) -> "_Prepared":
        """The :class:`_Prepared` of one problem from its unknown ids, its
        node potentials and its ``(edges, ops, anchor_msgs)``; records the
        problem's largest operator on *tracer*'s ``peak_factor_nnz``
        gauge."""
        edges, ops, anchor_msgs = edge_ops
        if tracer.enabled and ops:
            tracer.gauge_max("peak_factor_nnz", max(int(fwd.nnz) for fwd, _ in ops))
        return _Prepared(
            ms=ms,
            grid=grid,
            prior=prior,
            radio=radio,
            unknowns=unknowns,
            anchor_msgs=anchor_msgs,
            problem=BPProblem(
                log_phi=log_phi, edges=edges, ops=ops, grid=grid, cfg=self.config
            ),
        )

    def _edge_operator_block(
        self,
        grid: Grid2D,
        problems: list[tuple[MeasurementSet, RadioModel]],
    ) -> list[tuple[list[tuple[int, int]], list[tuple], int]]:
        """Edge operators of every ``(ms, radio)`` problem of a block: per
        problem, its unknown-unknown ``edges`` (as unknown rows), their
        oriented operator pairs ``ops`` and ``anchor_msgs``, the number of
        anchor-unknown links (one anchor broadcast consumed each).

        Each edge carries an operator pair ``(fwd, bwd)``: the i→j message
        is ``fwd @ h_i`` and j→i is ``bwd @ h_j``.  Pure ranging and
        connectivity potentials are symmetric (fwd is bwd); AoA
        potentials are not.  The problems share *grid*, this solver's
        config and fingerprint-equal models (:func:`localize_batch`
        groups them so), so one ranging cache (one registry lookup) or one
        connectivity operator serves the block.  Edges come from one
        ``nonzero`` of the stacked upper-triangular adjacency, which keeps
        each problem's :meth:`MeasurementSet.edges` order; mask arrays
        split anchor links from unknown-unknown edges, and every observed
        distance is quantized in one pass
        (:meth:`RangingPotentialCache.get_many`), so a problem's ops are
        the very CSR objects, in the very order, of its block of one.
        Bearing edges combine their AoA factor edge by edge.
        """
        cfg = self.config
        ms0, radio = problems[0]
        n_b = len(problems)
        n_max = max(ms.n_nodes for ms, _ in problems)
        adjacency = np.zeros((n_b, n_max, n_max), dtype=bool)
        anchor = np.zeros((n_b, n_max), dtype=bool)
        observed = np.zeros((n_b, n_max, n_max)) if ms0.has_ranging else None
        bearings = np.zeros((n_b, n_max, n_max)) if ms0.has_bearings else None
        for b, (ms, _) in enumerate(problems):
            n = ms.n_nodes
            adjacency[b, :n, :n] = ms.adjacency
            anchor[b, :n] = ms.anchor_mask
            if observed is not None:
                observed[b, :n, :n] = ms.observed_distances
            if bearings is not None:
                bearings[b, :n, :n] = ms.observed_bearings
        eb, ei, ej = np.nonzero(np.triu(adjacency, 1))
        ai, aj = anchor[eb, ei], anchor[eb, ej]
        anchor_msgs = np.bincount(eb[ai != aj], minlength=n_b).tolist()
        uu = ~(ai | aj)
        eb, ei, ej = eb[uu], ei[uu], ej[uu]
        # unknown row of every node: unknowns counted in node order
        row = np.cumsum(~anchor, axis=1) - 1
        pairs = list(zip(row[eb, ei].tolist(), row[eb, ej].tolist()))
        if ms0.has_ranging:
            blur = cfg.cell_blur_fraction * grid.cell_diagonal
            conn_radio = radio if cfg.use_connectivity_in_ranging else None
            if cfg.shared_cache:
                # Cross-trial reuse: identical (grid, ranging, radio, blur)
                # keys get the warm kernels built by earlier runs in this
                # process.
                cache = shared_registry().ranging_cache(
                    grid, ms0.ranging, conn_radio, blur
                )
            else:
                cache = RangingPotentialCache(
                    grid, ms0.ranging, conn_radio, blur_sigma=blur
                )
            psis = cache.get_many(observed[eb, ei, ej])
        elif pairs:
            if cfg.shared_cache:
                shared_registry().pairwise_distances(grid)
            # CSR like the ranging kernels (and exactly like
            # DistributedBPSimulator builds it): the dense operator went
            # through BLAS gemv, whose rounding differs from the sparse
            # kernel, so the two solvers' range-free beliefs diverged in
            # the last bit (caught by the repro.audit differential
            # harness, scenario smoke-rangefree).
            psis = [
                sparse.csr_matrix(
                    connectivity_potential(grid.pairwise_center_distances(), radio)
                )
            ] * len(pairs)
        else:
            psis = []
        if bearings is None:
            ops = [(psi, psi) for psi in psis]
        else:
            ops = []
            for psi, b, i, j in zip(psis, eb, ei, ej):
                bpsi = pairwise_bearing_potential(
                    grid, bearings[b, i, j], bearings[b, j, i], ms0.bearing_model
                )
                combined = sparse.csr_matrix(psi.multiply(bpsi))
                ops.append((sparse.csr_matrix(combined.T), combined))
        starts = np.searchsorted(eb, np.arange(n_b + 1)).tolist()
        return [
            (pairs[lo:hi], ops[lo:hi], n_links)
            for lo, hi, n_links in zip(starts, starts[1:], anchor_msgs)
        ]

    def _maybe_restart(
        self,
        prep: "_Prepared",
        outcome: BPOutcome,
        est: _Estimates,
        kernel: KernelBackend,
        tracer: NullTracer,
        rows: tuple,
    ) -> tuple[BPOutcome, _Estimates, bool]:
        """Graceful degradation: a numerically broken or diverging run gets
        one damped restart before we resort to per-node fallbacks.  *est*
        is the estimate pass over *outcome*'s rows and *rows* the result
        rows its group assembled from it (:func:`_group_rows`); a
        restarted run recomputes *est* for the new beliefs and writes its
        points and covariances into *rows*.  On healthy runs (no repairs,
        finite beliefs, shrinking residuals) this is observation-only —
        outputs stay bit-identical."""
        cfg = self.config
        if not (cfg.health_checks and prep.problem.edges):
            return outcome, est, False
        if outcome.health.get("deadline_stop"):
            # The kernel was stopped by an expired deadline scope — there
            # is no time budget left for a restart; the caller flags the
            # (internally consistent) partial answer as degraded instead.
            return outcome, est, False
        health = outcome.health
        broken = (
            health["message_repairs"] > 0
            or not est.healthy.all()
            or (
                not outcome.converged
                and residuals_diverging(health["residuals"])
            )
        )
        if not broken:
            return outcome, est, False
        import dataclasses as _dc

        cfg_restart = _dc.replace(cfg, damping=max(cfg.damping, cfg.restart_damping))
        with tracer.timer("damped_restart"):
            rerun = kernel.run(
                _dc.replace(prep.problem, cfg=cfg_restart), tracer
            )
        if tracer.enabled:
            tracer.count("damped_restarts")
        with tracer.timer("estimate"):
            est = _estimate_rows(prep.grid, rerun.beliefs, cfg)
            estimates, _, covariances, _ = rows
            estimates[prep.unknowns] = est.points
            covariances[prep.unknowns] = est.covariances
        return (
            BPOutcome(
                beliefs=rerun.beliefs,
                n_iterations=outcome.n_iterations + rerun.n_iterations,
                converged=rerun.converged,
                trace=rerun.trace,
                health=rerun.health,
            ),
            est,
            True,
        )

    def _finish(
        self,
        prep: "_Prepared",
        outcome: BPOutcome,
        est: _Estimates,
        restarted: bool,
        tracer: NullTracer,
        rows: tuple,
    ) -> LocalizationResult:
        """Everything after the BP loop: estimates (from *est*, the
        estimate pass over *outcome*'s rows), fallbacks, trace,
        communication accounting, telemetry, audit.  *rows* is the
        result's ``(estimates, localized_mask, covariances,
        fallback_mask)`` as its kernel group assembled them from *est*
        (:func:`_group_rows`, updated by a damped restart).  A fallback
        node's estimate is written into those rows."""
        ms = prep.ms
        cfg = self.config
        grid = prep.grid
        prior = prep.prior
        unknowns = prep.unknowns
        edges = prep.problem.edges
        anchor_msgs = prep.anchor_msgs
        K = grid.n_cells
        beliefs = outcome.beliefs
        n_iter = outcome.n_iterations
        converged = outcome.converged
        trace_logs = outcome.trace
        health = outcome.health
        estimates, mask, covariances, fallback = rows
        broken = np.flatnonzero(~est.healthy)
        for ui in broken:
            # Belief beyond repair: baseline fallback estimate and an
            # honest uniform belief for downstream consumers.
            u = int(unknowns[ui])
            beliefs[ui] = 1.0 / K
            estimates[u] = fallback_position(ms, u, prior, grid)
            fallback[u] = True
        n_fallback = len(broken)

        trace = []
        if cfg.record_trace:
            for logs in trace_logs:
                snap = estimates.copy()
                snap[unknowns] = (
                    grid.moments(logs)[0]
                    if cfg.estimator == "mmse"
                    else grid.centers[np.argmax(logs, axis=1)]
                )
                trace.append(snap)

        # Communication accounting (distributed execution model): one
        # anchor broadcast (the anchor's own position, 2 float64) per
        # anchor-unknown link, plus 2 messages per unknown-unknown edge per
        # BP round, each a K-vector of float64.  Shared convention with
        # DistributedBPSimulator and the E7 benchmark.
        uu_msgs = 2 * len(edges) * n_iter
        messages = anchor_msgs + uu_msgs
        bytes_sent = anchor_msgs * _ANCHOR_BROADCAST_BYTES + uu_msgs * K * 8
        if tracer.enabled:
            tracer.annotate("method", self.name)
            tracer.annotate("schedule", cfg.schedule)
            tracer.annotate("grid_cells", K)
            tracer.annotate("n_unknowns", len(unknowns))
            tracer.annotate("converged", bool(converged))
            tracer.count("runs")
            tracer.count("bp_iterations", n_iter)
            tracer.count("anchor_broadcasts", anchor_msgs)
            tracer.count("messages", messages)
            tracer.count("bytes", bytes_sent)
            if health["message_repairs"]:
                tracer.count("message_repairs", health["message_repairs"])
            if n_fallback:
                tracer.count("fallback_nodes", n_fallback)
            if restarted:
                tracer.annotate("damped_restart", True)
            if health.get("deadline_stop"):
                tracer.count("deadline_stops")
        result = LocalizationResult(
            estimates=estimates,
            localized_mask=mask,
            method=self.name,
            n_iterations=n_iter,
            converged=converged,
            trace=trace,
            messages_sent=messages,
            bytes_sent=bytes_sent,
            fallback_mask=fallback,
            extras={
                "beliefs": dict(zip(unknowns.tolist(), beliefs)),
                "covariances": covariances,
                "grid": grid,
                **(
                    {"deadline_stop": True}
                    if health.get("deadline_stop")
                    else {}
                ),
            },
        )
        from repro.audit.invariants import (
            audit_localization_result,
            check_symmetric_ops,
            run_audit,
        )

        def checks():
            out = audit_localization_result(
                result, ms.width, ms.height, anchor_mask=ms.anchor_mask
            )
            if not ms.has_bearings:
                # pure ranging / connectivity operators are claimed symmetric
                out += check_symmetric_ops(prep.problem.ops)
            return out

        run_audit(self.config.audit, self.name, tracer, checks)
        return result

    # ------------------------------------------------------------------ #
    def _node_potentials(
        self,
        ms: MeasurementSet,
        grid: Grid2D,
        prior: PositionPrior,
        radio: RadioModel,
        unknowns: np.ndarray,
    ) -> np.ndarray:
        """Log node potentials ``(n_unknown, K)``: prior × anchor evidence.

        The block pass :meth:`_node_potential_block` over a block of one
        (:class:`~repro.parallel.messaging.DistributedBPSimulator` builds
        its agents' unary potentials with it).  Its output is
        bit-identical to :meth:`_node_potentials_baseline`.
        """
        return self._node_potential_block(grid, [(ms, prior, radio, unknowns)])[0]

    def _node_potential_block(
        self,
        grid: Grid2D,
        problems: list[tuple[MeasurementSet, PositionPrior, RadioModel, np.ndarray]],
    ) -> list[np.ndarray]:
        """Log node potentials of every ``(ms, prior, radio, unknowns)``
        problem of a block, one ``(n_unknown, K)`` array per problem.

        The problems share *grid* and this solver's config, and their
        radios, ranging models and bearing models fingerprint equal
        (:func:`localize_batch` groups them so), so the first problem's
        models serve all.  Each step runs once over the block's stacked
        anchors, unknowns and links: the anchor fields (distances,
        detection and negative-evidence rows) as one ``(ΣA, K)`` stack,
        one ``log`` of the stacked prior rows (each prior's rows gathered
        by one :meth:`PositionPrior.grid_weight_rows`), every anchor
        link's potential in one ``(links, K)`` slab
        (:func:`ranging_potential_rows`, :func:`anchor_bearing_rows`),
        hop counts by one BFS over the stacked adjacency
        (:func:`_anchor_hop_block`) and one peak pass.  The loop over
        anchor slots 0…A_max−1 then only adds precomputed rows to the
        rows of all problems at once: per slot, hop bound, link (ranging
        or connectivity, then bearing) and negative evidence, as the
        baseline adds them per anchor.  Every row thus gets the
        baseline's adds in the baseline's order, every slab row depends
        on its own link alone, and each problem's output is bit-identical
        to :meth:`_node_potentials_baseline` whatever the block holds.
        """
        cfg = self.config
        ms0, _, radio, _ = problems[0]
        n_b = len(problems)
        anchor_ids = [ms.anchor_ids for ms, _, _, _ in problems]
        u_ids = [np.asarray(u, dtype=np.intp) for _, _, _, u in problems]
        n_a = np.array([len(a) for a in anchor_ids], dtype=np.intp)
        n_u = np.array([len(u) for u in u_ids], dtype=np.intp)
        a_off = np.concatenate(([0], np.cumsum(n_a)))
        u_off = np.concatenate(([0], np.cumsum(n_u)))
        n_max = max(ms.n_nodes for ms, _, _, _ in problems)
        # padded per-problem tables: slot s of problem b is anchor
        # A[b, s], row j is unknown U[b, j]
        A = np.zeros((n_b, int(n_a.max())), dtype=np.intp)
        U = np.zeros((n_b, int(n_u.max())), dtype=np.intp)
        adjacency = np.zeros((n_b, n_max, n_max), dtype=bool)
        observed = np.zeros((n_b, n_max, n_max)) if ms0.has_ranging else None
        bearings = np.zeros((n_b, n_max, n_max)) if ms0.has_bearings else None
        for b, (ms, _, _, _) in enumerate(problems):
            n = ms.n_nodes
            A[b, : n_a[b]] = anchor_ids[b]
            U[b, : n_u[b]] = u_ids[b]
            adjacency[b, :n, :n] = ms.adjacency
            if observed is not None:
                observed[b, :n, :n] = ms.observed_distances
            if bearings is not None:
                bearings[b, :n, :n] = ms.observed_bearings
        a_ok = np.arange(A.shape[1]) < n_a[:, None]
        u_ok = np.arange(U.shape[1]) < n_u[:, None]
        b_col = np.arange(n_b)[:, None]
        # global anchor / unknown row of each padded slot
        g_anchor = a_off[:-1, None] + np.arange(A.shape[1])
        g_row = u_off[:-1, None] + np.arange(U.shape[1])
        pair_ok = u_ok[:, :, None] & a_ok[:, None, :]
        heard = adjacency[b_col[:, :, None], U[:, :, None], A[:, None, :]] & pair_ok
        silent = pair_ok & ~heard

        apos = np.concatenate(
            [ms.anchor_positions_full[a] for (ms, _, _, _), a in zip(problems, anchor_ids)]
        )[:, None, :]
        diff = grid.centers - apos
        anchor_d = np.sqrt(np.einsum("aki,aki->ak", diff, diff))
        conn_radio = radio if cfg.use_connectivity_in_ranging else None
        if conn_radio is not None or cfg.use_negative_evidence or not ms0.has_ranging:
            pd = radio.p_detect(anchor_d)
        log_tiny = np.log(1e-300)

        prior_rows = [
            prior.grid_weight_rows(u, grid)
            for (_, prior, _, _), u in zip(problems, u_ids)
        ]
        log_phi = np.log(np.maximum(np.concatenate(prior_rows), 1e-300))

        def slot_major(mask):
            """(slot, problem, row) of *mask*'s entries, slot-major, and
            each slot's start in that order."""
            s, b, j = np.nonzero(mask.transpose(2, 0, 1))
            return s, b, j, np.searchsorted(s, np.arange(A.shape[1] + 1))

        ls, lb, lj, link_starts = slot_major(heard)
        link_rows, link_anchor = g_row[lb, lj], g_anchor[lb, ls]
        link_u, link_a = U[lb, lj], A[lb, ls]
        if link_rows.size:
            if ms0.has_ranging:
                pots = ranging_potential_rows(
                    anchor_d[link_anchor],
                    observed[lb, link_u, link_a][:, None],
                    ms0.ranging,
                    blur_sigma=cfg.cell_blur_fraction * grid.cell_diagonal,
                    p_detect=pd[link_anchor] if conn_radio is not None else None,
                )
            else:
                pots = _normalize_matrix(pd[link_anchor], axis=1)
            log_pots = np.log(np.maximum(pots, 1e-300))
            if bearings is not None:
                rel = apos - grid.centers  # as Grid2D.bearings_to_point
                bpots = anchor_bearing_rows(
                    np.arctan2(rel[..., 1], rel[..., 0])[link_anchor],
                    bearings[lb, link_u, link_a][:, None],
                    bearings[lb, link_a, link_u][:, None],
                    ms0.bearing_model,
                )
                log_bpots = np.log(np.maximum(bpots, 1e-300))
        if cfg.use_hop_bounds:
            hops = _anchor_hop_block(adjacency, A, a_ok)[b_col, U]
            hs, hb, hj, hop_starts = slot_major(
                silent & (hops >= 2) & np.isfinite(hops)
            )
            # h-hop reachability: each hop covers at most the radio
            # range, so the node lies within h·r of the anchor.
            radio_range = np.array([ms.radio_range for ms, _, _, _ in problems])
            reach = hops[hb, hj, hs] * radio_range[hb]
            hop_rows = g_row[hb, hj]
            hop_pots = np.where(
                anchor_d[g_anchor[hb, hs]] <= reach[:, None], 0.0, log_tiny
            )
        if cfg.use_negative_evidence:
            neg = 1.0 - pd
            if (silent.any(axis=1)[a_ok] & (neg.max(axis=1) <= 0)).any():
                # same failure mode as negative_anchor_potential
                raise ValueError(
                    "negative evidence eliminated every cell — anchor's "
                    "radio range covers the entire grid"
                )
            log_neg = np.log(np.maximum(neg, 1e-300))
            ns, nb, nj, neg_starts = slot_major(silent)
            neg_rows, neg_anchor = g_row[nb, nj], g_anchor[nb, ns]
        for s in range(A.shape[1]):
            if cfg.use_hop_bounds:
                block = slice(hop_starts[s], hop_starts[s + 1])
                log_phi[hop_rows[block]] += hop_pots[block]
            block = slice(link_starts[s], link_starts[s + 1])
            rows = link_rows[block]
            if rows.size:
                log_phi[rows] += log_pots[block]
                if bearings is not None:
                    log_phi[rows] += log_bpots[block]
            if cfg.use_negative_evidence:
                block = slice(neg_starts[s], neg_starts[s + 1])
                log_phi[neg_rows[block]] += log_neg[neg_anchor[block]]
        peaks = log_phi.max(axis=1)
        bad = np.flatnonzero(~np.isfinite(peaks))
        if bad.size:
            raise ValueError(
                f"node {int(np.concatenate(u_ids)[bad[0]])}: evidence and prior "
                "are mutually exclusive on the grid (prior support excludes all "
                "feasible cells?)"
            )
        log_phi -= peaks[:, None]
        return [log_phi[u_off[b] : u_off[b + 1]] for b in range(n_b)]

    def _node_potentials_baseline(
        self,
        ms: MeasurementSet,
        grid: Grid2D,
        prior: PositionPrior,
        radio: RadioModel,
        unknowns: np.ndarray,
    ) -> np.ndarray:
        """Reference implementation of :meth:`_node_potentials`.

        The bit-identity reference for tests and the audit's reference
        runner (:class:`repro.audit.harness.ReferenceGridBP`); no config
        selects it.  Recomputes every anchor field per unknown.
        """
        cfg = self.config
        log_phi = np.empty((len(unknowns), grid.n_cells))
        anchor_ids = ms.anchor_ids
        hops = None
        if cfg.use_hop_bounds:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            hops = shortest_path(
                csr_matrix(ms.adjacency.astype(np.int8)),
                method="D",
                unweighted=True,
                directed=False,
            )[:, anchor_ids]
        for ui, u in enumerate(unknowns):
            u = int(u)
            w = prior.grid_weights(u, grid)
            lp = np.log(np.maximum(w, 1e-300))
            for ai, a in enumerate(anchor_ids):
                a = int(a)
                apos = ms.anchor_positions_full[a]
                if (
                    hops is not None
                    and not ms.adjacency[u, a]
                    and np.isfinite(hops[u, ai])
                    and hops[u, ai] >= 2
                ):
                    # h-hop reachability: each hop covers at most the radio
                    # range, so the node lies within h·r of the anchor.
                    reach = hops[u, ai] * ms.radio_range
                    d = grid.distances_to_point(apos)
                    lp = lp + np.where(d <= reach, 0.0, np.log(1e-300))
                if ms.adjacency[u, a]:
                    if ms.has_ranging:
                        pot = anchor_ranging_potential(
                            grid,
                            apos,
                            ms.observed_distances[u, a],
                            ms.ranging,
                            radio if cfg.use_connectivity_in_ranging else None,
                            blur_sigma=cfg.cell_blur_fraction * grid.cell_diagonal,
                        )
                    else:
                        pot = anchor_connectivity_potential(grid, apos, radio)
                    lp = lp + np.log(np.maximum(pot, 1e-300))
                    if ms.has_bearings:
                        bpot = anchor_bearing_potential(
                            grid,
                            apos,
                            ms.observed_bearings[u, a],
                            ms.observed_bearings[a, u],
                            ms.bearing_model,
                        )
                        lp = lp + np.log(np.maximum(bpot, 1e-300))
                elif cfg.use_negative_evidence:
                    pot = negative_anchor_potential(grid, apos, radio)
                    lp = lp + np.log(np.maximum(pot, 1e-300))
            peak = lp.max()
            if not np.isfinite(peak):
                raise ValueError(
                    f"node {u}: evidence and prior are mutually exclusive on "
                    "the grid (prior support excludes all feasible cells?)"
                )
            log_phi[ui] = lp - peak
        return log_phi


# ---------------------------------------------------------------------- #
def _anchor_hop_block(
    adjacency: np.ndarray, anchors: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """``(B, n, a)`` hop counts from anchor slot ``s`` of network ``b``
    (node ``anchors[b, s]``, used where ``valid[b, s]``) to every node of
    the ``(B, n, n)`` boolean *adjacency* stack, ``inf`` if unreachable or
    for an unused slot.  One frontier BFS from every anchor of every
    network at once over the undirected adjacency; each step's counts are
    sums of 0/1 products, so they are exact whatever the stack holds."""
    adj = (adjacency | adjacency.transpose(0, 2, 1)).astype(np.float64)
    nets, slots = np.nonzero(valid)
    hops = np.full((*adj.shape[:2], valid.shape[1]), np.inf)
    hops[nets, anchors[nets, slots], slots] = 0.0
    frontier = (hops == 0.0).astype(np.float64)
    h = 0.0
    while True:
        reached = (adj @ frontier > 0) & np.isinf(hops)
        if not reached.any():
            return hops
        h += 1.0
        hops[reached] = h
        frontier = reached.astype(np.float64)


def _group_rows(preps: list[_Prepared], est: _Estimates) -> list[tuple]:
    """Per problem of a kernel group, its result's ``(estimates,
    localized_mask, covariances, fallback_mask)`` as row-slice views of
    one group block each, assembled by one scatter of the group estimate
    pass *est* (whose rows are every problem's unknowns, in order).

    Anchors sit at their positions, unknowns at their estimates, every
    node is localized and none is a fallback yet;
    :meth:`GridBPLocalizer._finish` writes a fallback node into its own
    rows.  Problems' rows never overlap, so no result aliases another.
    """
    sizes = [p.ms.n_nodes for p in preps]
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    anchor = np.concatenate([p.ms.anchor_mask for p in preps])
    unknown = np.flatnonzero(~anchor)
    estimates = np.full((bounds[-1], 2), np.nan)
    estimates[anchor] = np.concatenate(
        [p.ms.anchor_positions_full for p in preps]
    )[anchor]
    estimates[unknown] = est.points
    mask = anchor.copy()
    mask[unknown] = True
    covariances = np.full((bounds[-1], 2, 2), np.nan)
    covariances[unknown] = est.covariances
    fallback = np.zeros(bounds[-1], dtype=bool)
    return [
        (estimates[lo:hi], mask[lo:hi], covariances[lo:hi], fallback[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------- #
def _prepare_blocks(
    pairs: list[tuple[GridBPLocalizer, MeasurementSet]], grid: Grid2D
) -> list[_Prepared]:
    """Per pair of one kernel group (equal grid geometry and config, so
    all on *grid*), its :class:`_Prepared` as its block built it.

    Pairs share a block when the solver class, ``has_ranging`` /
    ``has_bearings`` and the fingerprints of the resolved radio, the
    ranging model and the bearing model are equal — exactly what makes
    their potentials one computation.  A pair whose models do not
    fingerprint, or a lone pair (:meth:`GridBPLocalizer.localize`), is a
    block of one.  A block runs two passes: its solver class's
    :meth:`GridBPLocalizer._node_potential_block` and
    :meth:`GridBPLocalizer._edge_operator_block` (one ranging-cache
    lookup for the whole block), timed on its first solver's
    ``node_potentials`` and ``edge_potentials`` timers.  A block's
    ``ValueError`` (the potentials' failure modes: a zero-mass prior,
    evidence that excludes every cell, a non-finite or negative
    unknown-unknown distance) propagates.
    """
    blocks: dict[object, list[int]] = {}
    models = [loc._models(ms) for loc, ms in pairs]
    for i, ((loc, ms), (_, radio)) in enumerate(zip(pairs, models)):
        prints = tuple(
            _fingerprint(m) for m in (radio, ms.ranging, ms.bearing_model)
        )
        key = (type(loc), ms.has_ranging, ms.has_bearings, prints)
        blocks.setdefault(i if None in prints else key, []).append(i)
    out: list[_Prepared] = [None] * len(pairs)
    for idxs in blocks.values():
        loc = pairs[idxs[0]][0]
        problems = [
            (pairs[i][1], *models[i], pairs[i][1].unknown_ids) for i in idxs
        ]
        with loc.tracer.timer("node_potentials"):
            log_phis = loc._node_potential_block(grid, problems)
        with loc.tracer.timer("edge_potentials"):
            edge_ops = loc._edge_operator_block(
                grid, [(ms, radio) for ms, _, radio, _ in problems]
            )
        for i, (ms, prior, radio, unknowns), log_phi, ops in zip(
            idxs, problems, log_phis, edge_ops
        ):
            solver = pairs[i][0]
            out[i] = solver._assemble(
                ms, grid, prior, radio, unknowns, log_phi, ops, solver.tracer
            )
    return out


def _solve_group(
    solvers: list[GridBPLocalizer],
    preps: list[_Prepared],
    kernel: KernelBackend,
    n_groups: int = 0,
) -> list[LocalizationResult]:
    """Solve one kernel group of prepared problems on *kernel* and finish
    their results, in order.

    A group of one runs ``kernel.run``, timed as its solver's ``bp``; a
    larger group runs one ``run_batch`` (one stacked tensor pass per BP
    round for synchronous sum-product) and emits no per-problem ``bp``
    timers.  The estimate pass (health mask, point estimates,
    covariances) runs once over the group's stacked belief rows, and one
    scatter (:func:`_group_rows`) assembles the group's estimates,
    localized masks, covariances and fallback flags, both timed as
    ``estimate`` on the first solver's tracer.  Each problem then takes
    its damped health restart (which writes into its own rows) and
    :meth:`GridBPLocalizer._finish`.  *n_groups* > 0 marks one group of a
    :func:`localize_batch` call with that many groups: each tracer gets
    ``batch_size`` / ``batch_groups`` annotations and each result its
    telemetry snapshot right after its finish; a lone
    :meth:`GridBPLocalizer.localize` (0) annotates neither and snapshots
    itself.
    """
    problems = [p.problem for p in preps]
    if len(problems) == 1:
        tr = solvers[0].tracer
        with tr.timer("bp"):
            outcomes = [kernel.run(problems[0], tr)]
    else:
        outcomes = kernel.run_batch(problems)
    with solvers[0].tracer.timer("estimate"):
        group_est = _estimate_rows(
            problems[0].grid,
            np.concatenate([o.beliefs for o in outcomes]),
            problems[0].cfg,
        )
        group_rows = _group_rows(preps, group_est)
    results = []
    stop = 0
    for loc, prep, outcome, rows in zip(solvers, preps, outcomes, group_rows):
        start, stop = stop, stop + len(outcome.beliefs)
        tr = loc.tracer
        outcome, est, restarted = loc._maybe_restart(
            prep, outcome, group_est.rows(start, stop), kernel, tr, rows
        )
        if tr.enabled:
            tr.annotate("backend", kernel.name)
            if n_groups:
                tr.annotate("batch_size", len(problems))
                tr.annotate("batch_groups", n_groups)
        result = loc._finish(prep, outcome, est, restarted, tr, rows)
        if n_groups and tr.enabled:
            result.telemetry = tr.snapshot()
        results.append(result)
    return results


def localize_batch(
    pairs: list[tuple[GridBPLocalizer, MeasurementSet]],
) -> list[LocalizationResult]:
    """Localize many (solver, measurements) pairs, batching compatible ones.

    Pairs are grouped by one :func:`repro.kernels.shape_key` each (grid
    shape and extent, ``K``, equal config — different networks, priors
    and seeds batch together; mixed shapes split into separate groups,
    never silently co-batched).  Each group gets one :class:`Grid2D`, is
    prepared as blocks (:func:`_prepare_blocks`: one node-potential pass
    and one edge-operator pass per block of pairs with equal solver
    class, modalities and model fingerprints) and is solved by
    :func:`_solve_group` on the kernel its config's schedule picks
    (:func:`repro.kernels.kernel_for`).  :meth:`GridBPLocalizer.localize`
    runs the same two functions on a group of one.

    Results come back in input order and are bit-identical to calling
    ``localize`` pair by pair (gated by ``tests/test_kernels.py`` and the
    ``repro.audit`` ``batched-batch-vs-sequential`` DiffCase); every
    group is prepared before any is solved, and a pair that cannot be
    prepared raises the error the pair-by-pair loop raises first.  Each
    result holds row-slice views of its group's result blocks, and a
    fallback node is written into its own rows; communication accounting
    stays per trial.  Telemetry: each solver's tracer records its own
    ``peak_factor_nnz`` gauge; a preparation block and a group's estimate
    pass and scatter are timed on their first solver's tracer, and every
    tracer gets ``batch_size`` / ``batch_groups`` annotations.
    """
    pairs = list(pairs)
    groups: dict[tuple, list[int]] = {}
    for i, (loc, ms) in enumerate(pairs):
        g = loc.config.grid_size
        key = shape_key(g, g, ms.width, ms.height, g * g, loc.config)
        groups.setdefault(key, []).append(i)
    preps: list[_Prepared] = [None] * len(pairs)
    try:
        for idxs in groups.values():
            loc, ms = pairs[idxs[0]]
            g = loc.config.grid_size
            grid = Grid2D(g, g, ms.width, ms.height)
            group = _prepare_blocks([pairs[i] for i in idxs], grid)
            for i, prep in zip(idxs, group):
                preps[i] = prep
    except ValueError:
        # Some pair cannot be prepared: the pairs' own builds, in input
        # order, raise the error the pair-by-pair loop raises first.
        for loc, ms in pairs:
            loc._prepare(ms)
        raise
    results: list[LocalizationResult] = [None] * len(pairs)
    for idxs in groups.values():
        solvers = [pairs[i][0] for i in idxs]
        kernel = kernel_for(solvers[0].config)
        solved = _solve_group(solvers, [preps[i] for i in idxs], kernel, len(groups))
        for i, result in zip(idxs, solved):
            results[i] = result
    return results
