"""Nonparametric belief propagation (NBP) cooperative localization.

The continuous-space counterpart of the grid localizer, after Ihler et al.
(2005): each unknown node's belief is a particle cloud; one BP iteration
re-draws each node's particles from proposals generated by pushing
neighbors' particles through the observed ranges (a random bearing plus
ranging noise) and weights them by the product of all neighbor message
likelihoods and the pre-knowledge prior.

Compared to the grid BN this trades bounded-by-cell-size bias for Monte
Carlo variance; the E10 ablation sweeps the particle count against the
grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import Grid2D
from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.priors.deployment import UniformPrior
from repro.utils.rng import RNGLike, as_generator

__all__ = ["NBPLocalizer", "NBPConfig"]


@dataclass
class NBPConfig:
    """Tunables of :class:`NBPLocalizer`.

    Attributes
    ----------
    n_particles:
        Particles per node belief.
    n_iterations:
        BP sweeps (NBP needs only a few once information has flooded in).
    proposal_boost:
        Proposal sets are ``proposal_boost × n_particles`` candidates before
        importance resampling.
    prior_grid_size:
        Resolution used only to *sample* from the prior initially.
    audit:
        Runtime invariant checking (:mod:`repro.audit.invariants`).
        ``None`` defers to the ``REPRO_AUDIT`` environment variable;
        ``"off"`` disables; ``"warn"`` emits a ``RuntimeWarning``;
        ``"raise"`` raises :class:`repro.audit.invariants.AuditError`.
    """

    n_particles: int = 200
    n_iterations: int = 5
    proposal_boost: int = 2
    prior_grid_size: int = 25
    audit: str | None = None

    def __post_init__(self) -> None:
        if self.n_particles < 10:
            raise ValueError("n_particles must be >= 10")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.proposal_boost < 1:
            raise ValueError("proposal_boost must be >= 1")
        if self.prior_grid_size < 2:
            raise ValueError("prior_grid_size must be >= 2")
        if self.audit not in (None, "off", "warn", "raise"):
            raise ValueError("audit must be one of None, 'off', 'warn', 'raise'")


class NBPLocalizer(Localizer):
    """Particle-based cooperative localization with pre-knowledge priors.

    Requires a ranging measurement set (``measurements.has_ranging``);
    range-free problems should use the grid localizer, whose potentials
    handle pure connectivity.
    """

    name = "nbp"

    def __init__(
        self,
        prior: PositionPrior | None = None,
        config: NBPConfig | None = None,
        tracer: NullTracer | None = None,
    ) -> None:
        self.prior = prior
        self.config = config if config is not None else NBPConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------ #
    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        tracer = self.tracer
        with tracer.timer("localize"):
            result = self._localize_traced(measurements, rng, tracer)
        if tracer.enabled:
            result.telemetry = tracer.snapshot()
        return result

    def _localize_traced(
        self, measurements: MeasurementSet, rng: RNGLike, tracer: NullTracer
    ) -> LocalizationResult:
        ms = measurements
        if not ms.has_ranging:
            raise ValueError(
                "NBPLocalizer needs ranged measurements; use GridBPLocalizer "
                "for connectivity-only observations"
            )
        cfg = self.config
        gen = as_generator(rng)
        prior = self.prior if self.prior is not None else UniformPrior(ms.width, ms.height)
        grid = Grid2D(cfg.prior_grid_size, cfg.prior_grid_size, ms.width, ms.height)

        unknowns = [int(u) for u in ms.unknown_ids]
        n_p = cfg.n_particles

        # Initial particle clouds from the prior (the pre-knowledge enters
        # both here and in the iteration weights).
        with tracer.timer("init_particles"):
            particles: dict[int, np.ndarray] = {
                u: prior.sample(u, n_p, grid, gen) for u in unknowns
            }
        anchors_of = {
            u: [int(a) for a in ms.anchor_ids if ms.adjacency[u, a]] for u in unknowns
        }
        unknown_neighbors = {
            u: [int(v) for v in ms.neighbors(u) if not ms.anchor_mask[v]]
            for u in unknowns
        }
        if tracer.enabled:
            prev_means = {u: particles[u].mean(axis=0) for u in unknowns}
        round_msgs = sum(len(unknown_neighbors[u]) for u in unknowns)
        round_bytes = round_msgs * n_p * 2 * 8

        messages_sent = 0
        particle_resets = 0
        for _ in range(cfg.n_iterations):
            with tracer.timer("iteration"):
                new_particles: dict[int, np.ndarray] = {}
                for u in unknowns:
                    cands = self._proposals(u, ms, particles, anchors_of, unknown_neighbors, gen)
                    logw = prior.log_density(u, cands)
                    logw = logw + self._evidence_logweight(
                        u, cands, ms, particles, anchors_of, unknown_neighbors
                    )
                    if np.isnan(logw).any():
                        # A single NaN candidate weight (corrupted range /
                        # degenerate proposal) would make logw.max() NaN and
                        # poison every weight, silently collapsing the
                        # reweighting to uniform resampling.  Offset by the
                        # max over the *finite* weights so the healthy
                        # candidates keep their relative mass (−inf entries
                        # are ordinary zero weights and never poison the
                        # max, so they take the fast path below).
                        finite = np.isfinite(logw)
                        if finite.any():
                            logw -= logw[finite].max()
                            tracer.count("nan_weight_events")
                        # all-non-finite: weights come out zero below and
                        # trigger the uniform fallback.
                    else:
                        logw -= logw.max() if np.isfinite(logw).any() else 0.0
                    w = np.exp(np.where(np.isfinite(logw), logw, -np.inf))
                    total = w.sum()
                    if total <= 0:
                        w = np.ones(len(cands))
                        total = float(len(cands))
                    idx = gen.choice(len(cands), size=n_p, p=w / total)
                    cloud = cands[idx]
                    if not np.isfinite(cloud).all():
                        # Degenerate cloud (NaN candidates from corrupted
                        # ranges): restart this node from its prior rather
                        # than poisoning the neighbors next sweep.
                        cloud = prior.sample(u, n_p, grid, gen)
                        particle_resets += 1
                    new_particles[u] = cloud
                particles = new_particles
            # Distributed cost: each node broadcasts its particle cloud to
            # its neighbors once per iteration.
            messages_sent += round_msgs
            if tracer.enabled:
                # Residual = largest movement of any belief's particle mean
                # this sweep — deterministic given the seed, and 0 only
                # when every cloud resampled onto itself.
                means = {u: particles[u].mean(axis=0) for u in unknowns}
                residual = max(
                    (float(np.linalg.norm(means[u] - prev_means[u])) for u in unknowns),
                    default=0.0,
                )
                changed = sum(
                    1 for u in unknowns
                    if not np.array_equal(means[u], prev_means[u])
                )
                prev_means = means
                tracer.iteration(
                    residual=residual,
                    beliefs_changed=changed,
                    messages=round_msgs,
                    messages_cum=messages_sent,
                    bytes_cum=messages_sent * n_p * 2 * 8,
                )

        with tracer.timer("estimate"):
            from repro.core.health import fallback_position

            estimates, mask = self._result_skeleton(ms)
            fallback = np.zeros(ms.n_nodes, dtype=bool)
            for u in unknowns:
                est = particles[u].mean(axis=0)
                if not np.isfinite(est).all():
                    est = fallback_position(ms, u, prior, grid)
                    fallback[u] = True
                estimates[u] = est
                mask[u] = True
        n_fallback = int(fallback.sum())
        if tracer.enabled:
            if particle_resets:
                tracer.count("particle_resets", particle_resets)
            if n_fallback:
                tracer.count("fallback_nodes", n_fallback)
            tracer.annotate("method", self.name)
            tracer.annotate("n_particles", n_p)
            tracer.annotate("n_unknowns", len(unknowns))
            tracer.annotate("converged", True)
            tracer.gauge_max("peak_cloud_bytes", round_bytes if round_msgs else 0)
            tracer.count("runs")
            tracer.count("bp_iterations", cfg.n_iterations)
            tracer.count("messages", messages_sent)
            tracer.count("bytes", messages_sent * n_p * 2 * 8)
        result = LocalizationResult(
            estimates=estimates,
            localized_mask=mask,
            method=self.name,
            n_iterations=cfg.n_iterations,
            converged=True,
            messages_sent=messages_sent,
            bytes_sent=messages_sent * n_p * 2 * 8,
            fallback_mask=fallback,
            extras={"particles": particles},
        )
        from repro.audit.invariants import check_result_geometry, run_audit

        run_audit(
            self.config.audit,
            self.name,
            tracer,
            lambda: check_result_geometry(
                result, ms.width, ms.height, anchor_mask=ms.anchor_mask
            ),
        )
        return result

    # ------------------------------------------------------------------ #
    def _proposals(
        self,
        u: int,
        ms: MeasurementSet,
        particles: dict[int, np.ndarray],
        anchors_of: dict[int, list[int]],
        unknown_neighbors: dict[int, list[int]],
        gen: np.random.Generator,
    ) -> np.ndarray:
        """Candidate positions: neighbors' particles pushed through ranges.

        Each source (ranged anchor or unknown neighbor) contributes an
        equal share of ``proposal_boost × n_particles`` candidates; with no
        sources the node keeps jittered copies of its own particles.

        Candidates are clipped to the deployment field.  Nodes live inside
        it by construction, and an unbounded pre-knowledge prior (e.g. a
        Gaussian :class:`~repro.priors.deployment.PerNodePrior`) would let
        out-of-field candidates survive reweighting — the grid solver's
        state space cannot leave the field, so unclipped NBP estimates
        break the cross-solver ``estimate-in-field`` invariant.
        """
        cfg = self.config
        n_total = cfg.proposal_boost * cfg.n_particles
        sources: list[np.ndarray] = []
        dists: list[float] = []
        for a in anchors_of[u]:
            sources.append(ms.anchor_positions_full[a][None, :])
            dists.append(float(ms.observed_distances[u, a]))
        for v in unknown_neighbors[u]:
            sources.append(particles[v])
            dists.append(float(ms.observed_distances[u, v]))
        hi = np.array([ms.width, ms.height])
        if not sources:
            jitter = gen.normal(0, ms.radio_range / 4, size=(n_total, 2))
            base = particles[u][gen.integers(0, len(particles[u]), size=n_total)]
            return np.clip(base + jitter, 0.0, hi)
        # Reserve one share for the node's own (jittered) particles so good
        # positions survive reweighting — a standard NBP stabilizer against
        # particle impoverishment.
        per = max(n_total // (len(sources) + 1), 1)
        own = particles[u][gen.integers(0, len(particles[u]), size=per)]
        own = own + gen.normal(0, ms.radio_range / 10, size=own.shape)
        out = [own]
        sigma = ms.ranging.sigma_at(np.array(dists))
        for (src, d, s) in zip(sources, dists, sigma):
            pts = src[gen.integers(0, len(src), size=per)]
            theta = gen.uniform(0, 2 * np.pi, size=per)
            radius = d + gen.normal(0, max(float(s), 1e-6), size=per)
            out.append(
                pts + np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
            )
        return np.clip(np.concatenate(out, axis=0), 0.0, hi)

    @staticmethod
    def _evidence_logweight(
        u: int,
        cands: np.ndarray,
        ms: MeasurementSet,
        particles: dict[int, np.ndarray],
        anchors_of: dict[int, list[int]],
        unknown_neighbors: dict[int, list[int]],
    ) -> np.ndarray:
        """Σ over neighbors of log of the (mixture) message likelihood."""
        logw = np.zeros(len(cands))
        for a in anchors_of[u]:
            d = np.linalg.norm(cands - ms.anchor_positions_full[a], axis=1)
            logw += ms.ranging.log_likelihood(ms.observed_distances[u, a], d)
        for v in unknown_neighbors[u]:
            pv = particles[v]
            # Subsample the neighbor cloud: the mixture likelihood is smooth,
            # so ~64 support points suffice and the candidate × particle
            # distance matrix shrinks accordingly.
            if len(pv) > 64:
                pv = pv[:: len(pv) // 64][:64]
            # distance from every candidate to every neighbor particle
            diff = cands[:, None, :] - pv[None, :, :]
            d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            ll = ms.ranging.log_likelihood(ms.observed_distances[u, v], d)
            m = ll.max(axis=1, keepdims=True)
            logw += (m[:, 0] + np.log(np.exp(ll - m).mean(axis=1)))
        return logw
