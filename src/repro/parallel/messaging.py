"""Distributed execution of the Bayesian-network localizer.

:class:`DistributedBPSimulator` runs the *same* grid-BP computation as
:class:`~repro.core.bnloc.GridBPLocalizer`, but organized the way a real
deployment executes it: every sensor node is an agent with an inbox; in
each synchronous round an agent reads the belief messages its neighbors
sent last round, computes one outgoing message per neighbor, and delivers
them.  Nothing is shared — an agent sees only its own measurements, its
prior, and its mailbox.

This makes the communication cost *measured rather than modeled*
(:class:`RoundStats` counts actual deliveries and payload bytes per round)
and demonstrates that the algorithm is genuinely distributable: the test
suite asserts the final beliefs match the centralized solver.

The simulator is also the natural place to break things: pass a
:class:`~repro.faults.FaultPlan` and every round's messages flow through a
:class:`~repro.faults.MessageFaultInjector` — drops, corruption, delays,
node crashes and churn — while :class:`RoundStats` picks up the per-round
fault counts and the result carries the full fault log.  With no plan (or
``FaultPlan.none()``) the round loop is byte-for-byte the fault-free path,
so all bit-identity guarantees against the centralized solver still hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bnloc import (
    _ANCHOR_BROADCAST_BYTES,
    GridBPConfig,
    GridBPLocalizer,
)
from repro.core.grid import Grid2D
from repro.core.health import fallback_position
from repro.core.potentials import (
    RangingPotentialCache,
    connectivity_potential,
    shared_registry,
)
from repro.core.result import LocalizationResult
from repro.faults import FaultPlan, MessageFaultInjector, degrade_measurements
from repro.kernels.reference import _MSG_FLOOR, _belief_weights, _message_weights
from repro.measurement.measurements import MeasurementSet
from repro.network.radio import RadioModel, UnitDiskRadio
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.priors.deployment import UniformPrior

__all__ = ["DistributedBPSimulator", "RoundStats", "SensorNodeAgent"]


@dataclass
class RoundStats:
    """Per-round communication and convergence accounting.

    The fault columns are zero on fault-free runs: ``dropped`` counts
    messages lost in transit (including those addressed to a crashed
    node), ``corrupted`` messages delivered with corrupted content, and
    ``delayed`` messages queued for a later round.
    """

    round_index: int
    messages: int
    bytes: int
    max_residual: float
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0


class SensorNodeAgent:
    """One unknown node's local state in the distributed execution."""

    def __init__(self, node_id: int, log_phi: np.ndarray) -> None:
        self.node_id = int(node_id)
        self.log_phi = log_phi
        #: incoming message per neighbor id (previous round)
        self.inbox: dict[int, np.ndarray] = {}
        #: pairwise potential per neighbor id (sparse, symmetric)
        self.psi: dict[int, object] = {}

    def add_neighbor(self, other: int, psi, K: int) -> None:
        """*psi* is the oriented operator: outgoing message = psi @ h."""
        self.psi[int(other)] = psi
        self.inbox[int(other)] = np.full(K, 1.0 / K)

    def compute_outgoing(self, damping: float) -> dict[int, np.ndarray]:
        """One message per neighbor, from the current inbox."""
        # log(0) = -inf is tolerated here: the degenerate-inbox guard
        # below turns it into the uniform fallback, so silence numpy.
        with np.errstate(divide="ignore", invalid="ignore"):
            total = self.log_phi.copy()
            for m in self.inbox.values():
                total += np.log(m)
        out: dict[int, np.ndarray] = {}
        K = len(self.log_phi)
        for other, psi in self.psi.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                h = total - np.log(self.inbox[other])
            peak = h.max()
            if np.isfinite(peak):
                h -= peak
                msg = psi.dot(_message_weights(h, out=h))
                s = msg.sum()
            else:
                # Degenerate inbox (summed potential is -inf everywhere,
                # e.g. a zeroed message under fault injection): without
                # this guard ``h - (-inf)`` turns NaN and the message
                # product silently propagates it to every neighbor.
                # Fall back to the uninformative message.
                s = 0.0
            msg = msg / s if s > 0 else np.full(K, 1.0 / K)
            if damping > 0:
                # Damp against what *we last sent* to this neighbor; the
                # agent remembers it in _last_sent.
                prev = self._last_sent.get(other)
                if prev is not None:
                    msg = (1 - damping) * msg + damping * prev
                    msg = msg / msg.sum()
            np.maximum(msg, _MSG_FLOOR, out=msg)
            out[other] = msg
        self._last_sent.update(out)
        return out

    _last_sent: dict[int, np.ndarray]

    def reset_memory(self, K: int) -> None:
        self._last_sent = {o: np.full(K, 1.0 / K) for o in self.psi}

    def belief(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = self.log_phi.copy()
            for m in self.inbox.values():
                acc += np.log(m)
        peak = acc.max()
        if not np.isfinite(peak):
            # same degenerate-inbox case as compute_outgoing: an all--inf
            # accumulator would yield an all-NaN belief
            return np.full(len(acc), 1.0 / len(acc))
        acc -= peak
        b = _belief_weights(acc, out=acc)
        return b / b.sum()


class DistributedBPSimulator:
    """Synchronous-round distributed grid BP with mailbox accounting.

    Parameters mirror :class:`~repro.core.bnloc.GridBPLocalizer`; the
    computation is identical, only the execution model differs.
    """

    name = "distributed-grid-bp"

    def __init__(
        self,
        prior: PositionPrior | None = None,
        radio: RadioModel | None = None,
        config: GridBPConfig | None = None,
        faults: FaultPlan | None = None,
        tracer: NullTracer | None = None,
    ) -> None:
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {type(faults).__name__}"
            )
        self.prior = prior
        self.radio = radio
        self.config = config if config is not None else GridBPConfig()
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @staticmethod
    def _validate(ms: MeasurementSet) -> None:
        """Reject malformed networks with actionable messages (the config
        side is validated by :class:`GridBPConfig` itself)."""
        if not isinstance(ms, MeasurementSet):
            raise TypeError(
                f"run() expects a MeasurementSet, got {type(ms).__name__}"
            )
        if ms.n_nodes == 0:
            raise ValueError("empty network: the measurement set has no nodes")
        adj = np.asarray(ms.adjacency)
        if adj.shape != (ms.n_nodes, ms.n_nodes):
            raise ValueError(
                f"adjacency must be ({ms.n_nodes}, {ms.n_nodes}) to match the "
                f"node count, got {adj.shape}"
            )
        if not np.array_equal(adj, adj.T):
            bad = np.argwhere(adj != adj.T)
            i, j = (int(v) for v in bad[0])
            raise ValueError(
                "adjacency must be symmetric (radio links are bidirectional); "
                f"first asymmetric pair: ({i}, {j})"
            )
        if len(ms.unknown_ids) == 0:
            raise ValueError(
                "network has no unknown nodes to localize (every node is an "
                "anchor)"
            )

    def run(self, measurements: MeasurementSet) -> tuple[LocalizationResult, list[RoundStats]]:
        self._validate(measurements)
        ms = measurements
        cfg = self.config
        tracer = self.tracer
        plan = self.faults if self.faults is not None and self.faults.enabled else None

        # Measurement-level faults first (dead anchors, lost links, outlier
        # bursts) — crashes are excluded here because this simulator plays
        # them dynamically, round by round, through the message injector.
        meas_log = None
        if plan is not None and plan.affects_measurements:
            ms, meas_log = degrade_measurements(
                ms, plan, tracer, include_crashes=False
            )
            self._validate(ms)
        grid = Grid2D(cfg.grid_size, cfg.grid_size, ms.width, ms.height)
        prior = self.prior if self.prior is not None else UniformPrior(ms.width, ms.height)
        radio = self.radio if self.radio is not None else UnitDiskRadio(ms.radio_range)
        K = grid.n_cells

        # Local knowledge phase: each node folds anchor broadcasts and its
        # prior into a unary potential (reuses the centralized code — the
        # math is per-node local either way).
        helper = GridBPLocalizer(prior=prior, radio=radio, config=cfg)
        unknowns = ms.unknown_ids
        log_phi = helper._node_potentials(ms, grid, prior, radio, unknowns)
        agents = {
            int(u): SensorNodeAgent(int(u), log_phi[ui])
            for ui, u in enumerate(unknowns)
        }

        if ms.has_ranging:
            blur = cfg.cell_blur_fraction * grid.cell_diagonal
            conn_radio = radio if cfg.use_connectivity_in_ranging else None
            if cfg.shared_cache:
                # Same cross-trial kernel reuse as the centralized solver.
                cache = shared_registry().ranging_cache(
                    grid, ms.ranging, conn_radio, blur
                )
            else:
                cache = RangingPotentialCache(
                    grid, ms.ranging, conn_radio, blur_sigma=blur
                )
        conn_psi = None
        anchor_broadcasts = 0
        for i, j in ms.edges():
            i, j = int(i), int(j)
            if ms.anchor_mask[i] and ms.anchor_mask[j]:
                continue
            if ms.anchor_mask[i] or ms.anchor_mask[j]:
                anchor_broadcasts += 1
                continue
            if ms.has_ranging:
                psi = cache.get(ms.observed_distances[i, j])
            else:
                if conn_psi is None:
                    from scipy import sparse

                    if cfg.shared_cache:
                        shared_registry().pairwise_distances(grid)
                    conn_psi = sparse.csr_matrix(
                        connectivity_potential(grid.pairwise_center_distances(), radio)
                    )
                psi = conn_psi
            if ms.has_bearings:
                from scipy import sparse

                from repro.core.potentials import pairwise_bearing_potential

                bpsi = pairwise_bearing_potential(
                    grid,
                    ms.observed_bearings[i, j],
                    ms.observed_bearings[j, i],
                    ms.bearing_model,
                )
                combined = sparse.csr_matrix(psi.multiply(bpsi))
                agents[i].add_neighbor(j, sparse.csr_matrix(combined.T), K)
                agents[j].add_neighbor(i, combined, K)
            else:
                agents[i].add_neighbor(j, psi, K)
                agents[j].add_neighbor(i, psi, K)
        for a in agents.values():
            a.reset_memory(K)

        injector = None
        if plan is not None and plan.affects_messages:
            injector = MessageFaultInjector(plan, tracer)
            injector.resolve_outages(sorted(agents))

        stats: list[RoundStats] = []
        converged = False
        n_round = 0
        msg_bytes = K * 8
        for n_round in range(1, cfg.max_iterations + 1):
            if injector is None:
                # Fault-free fast path: byte-for-byte the original loop, so
                # the bit-identity tests against the centralized solver keep
                # their guarantee.
                outboxes = {
                    u: agent.compute_outgoing(cfg.damping)
                    for u, agent in agents.items()
                }
                max_res = 0.0
                n_msgs = 0
                for u, out in outboxes.items():
                    for other, msg in out.items():
                        prev = agents[other].inbox[u]
                        max_res = max(max_res, float(np.abs(msg - prev).max()))
                        agents[other].inbox[u] = msg
                        n_msgs += 1
                stats.append(RoundStats(n_round, n_msgs, n_msgs * msg_bytes, max_res))
                round_quiet = True
            else:
                down = injector.nodes_down(n_round)
                sent: list[tuple[int, int, np.ndarray]] = []
                for u, agent in agents.items():
                    if u in down:
                        continue  # crashed/off node computes and sends nothing
                    for other, msg in agent.compute_outgoing(cfg.damping).items():
                        sent.append((u, other, msg))
                delivered, record = injector.process_round(n_round, sent)
                max_res = 0.0
                n_msgs = 0
                for src, dst, msg in delivered:
                    prev = agents[dst].inbox[src]
                    max_res = max(max_res, float(np.abs(msg - prev).max()))
                    agents[dst].inbox[src] = msg
                    n_msgs += 1
                stats.append(
                    RoundStats(
                        n_round,
                        n_msgs,
                        n_msgs * msg_bytes,
                        max_res,
                        dropped=record.get("messages_dropped", 0),
                        corrupted=record.get("messages_corrupted", 0),
                        delayed=record.get("messages_delayed", 0),
                    )
                )
                # A residual measured on a partially delivered round is not
                # evidence of a fixed point: require a transiently quiet
                # round (no losses / corruption / late traffic) and an empty
                # delay queue before declaring convergence.
                round_quiet = (
                    injector.n_in_flight == 0
                    and not any(
                        record.get(k)
                        for k in (
                            "messages_dropped",
                            "messages_corrupted",
                            "messages_delayed",
                            "messages_arrived_late",
                        )
                    )
                )
            if tracer.enabled:
                tracer.iteration(residual=max_res, messages=n_msgs)
            if max_res < cfg.tol and round_quiet:
                converged = True
                break
        if injector is not None:
            # Close the delay-queue books before the fault log is exported:
            # messages still in flight would otherwise vanish silently.
            injector.finalize()

        estimates = np.full((ms.n_nodes, 2), np.nan)
        estimates[ms.anchor_mask] = ms.anchor_positions
        mask = ms.anchor_mask.copy()
        fallback = np.zeros(ms.n_nodes, dtype=bool)
        beliefs = {}
        for u, agent in agents.items():
            b = agent.belief()
            if not (np.isfinite(b).all() and b.sum() > 0):
                # Degenerate posterior (possible only under injection):
                # report the graceful-degradation estimate instead.
                b = np.full(K, 1.0 / K)
                estimates[u] = fallback_position(ms, u, prior, grid)
                fallback[u] = True
            else:
                estimates[u] = (
                    grid.expectation(b)
                    if cfg.estimator == "mmse"
                    else grid.map_estimate(b)
                )
            beliefs[u] = b
            mask[u] = True
        extras = {"beliefs": beliefs, "grid": grid}
        if plan is not None:
            extras["fault_log"] = {
                "messages": injector.log.to_dict() if injector is not None else None,
                "measurements": meas_log.to_dict() if meas_log is not None else None,
            }
        # Same accounting convention as GridBPLocalizer: anchor broadcasts
        # carry a position (2 float64), unknowns exchange K-vectors.
        total_msgs = anchor_broadcasts + sum(s.messages for s in stats)
        total_bytes = anchor_broadcasts * _ANCHOR_BROADCAST_BYTES + sum(
            s.bytes for s in stats
        )
        if tracer.enabled:
            tracer.annotate("method", self.name)
            tracer.annotate("converged", bool(converged))
            tracer.count("runs")
            tracer.count("bp_iterations", n_round)
            tracer.count("messages", total_msgs)
            tracer.count("bytes", total_bytes)
            n_fallback = int(fallback.sum())
            if n_fallback:
                tracer.count("fallback_nodes", n_fallback)
        result = LocalizationResult(
            estimates=estimates,
            localized_mask=mask,
            method=self.name,
            n_iterations=n_round,
            converged=converged,
            messages_sent=total_msgs,
            bytes_sent=total_bytes,
            fallback_mask=fallback,
            extras=extras,
        )
        if tracer.enabled:
            result.telemetry = tracer.snapshot()
        self._maybe_audit(result, stats, ms, agents, anchor_broadcasts, K, tracer)
        return result, stats

    def _maybe_audit(
        self, result, stats, ms, agents, anchor_broadcasts: int, K: int, tracer
    ) -> None:
        """Invariant guards (:mod:`repro.audit`) — observation-only, free
        when off.  On top of the shared result-level bundle, the simulator
        checks the per-round ledger against the result totals and every
        agent's inbox against the message floor."""
        from repro.audit.invariants import resolve_audit_mode

        mode = resolve_audit_mode(self.config.audit)
        if mode is None:
            return
        from repro.audit.invariants import (
            Auditor,
            audit_localization_result,
            check_delay_conservation,
            check_message_floor,
            check_round_accounting,
        )

        auditor = Auditor(mode, tracer=tracer, solver=self.name)
        auditor.extend(
            audit_localization_result(
                result, ms.width, ms.height, anchor_mask=ms.anchor_mask
            )
        )
        auditor.extend(
            check_round_accounting(
                result,
                stats,
                anchor_broadcasts,
                _ANCHOR_BROADCAST_BYTES,
                msg_bytes=K * 8,
            )
        )
        fault_log = (
            result.extras.get("fault_log") if isinstance(result.extras, dict) else None
        )
        if fault_log and fault_log.get("messages"):
            auditor.extend(
                check_delay_conservation(fault_log["messages"]["counters"])
            )
        if self.faults is None or not self.faults.enabled:
            # The floor is a *solver* commitment; corrupted in-transit
            # messages are renormalized by the injector and may
            # legitimately dip below it.
            inbox_msgs = [m for a in agents.values() for m in a.inbox.values()]
            auditor.extend(
                check_message_floor(inbox_msgs, _MSG_FLOOR, what="inbox message")
            )
        auditor.finish()
