"""Sampling-based continuous-posterior cooperative localization (MCMC).

The third solver family, next to the grid Bayesian network (exact on a
discretized state space) and NBP (particle message passing).  A
Metropolis-within-Gibbs sampler sweeps the unknown nodes; each node move
is a multiple-try Metropolis (MTM) step in the style of the beetroots
sampler for sensor-localization posteriors: draw ``k`` Gaussian candidates
around the current position, pick one by its posterior weight, and accept
against ``k − 1`` reference draws around the selected point.  MTM's
weighted selection makes the random-walk usable on the sharply ridged
likelihoods ranging produces, where plain Metropolis mixes poorly.

The target density reuses the *same* building blocks as the other
solvers — ``ranging.log_likelihood``, ``radio.p_detect`` (link and
negative evidence, floored exactly like the grid potentials),
``bearing_model.log_likelihood``, ``prior.log_density``, and the hard
deployment-field support the grid's state space implies — so the three
families approximate one posterior, not three.  That is also why this
module leans on the tail-safe likelihoods: MTM weights are combined with
:func:`repro.utils.logsumexp`, and a candidate in a zero-mass region must
contribute ``-inf`` (an ordinary rejection), never NaN.

Compared to the grid, the sampler has no quantization floor: its per-node
sample covariances feed :mod:`repro.metrics.calibration` directly.
Convergence is self-reported through split-R̂ and a crude ESS over the
kept draws (``extras["diagnostics"]``, also annotated on the obs tracer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import Grid2D
from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.network.radio import RadioModel, UnitDiskRadio
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.priors.deployment import UniformPrior
from repro.utils.rng import RNGLike, as_generator
from repro.utils.stablemath import logsumexp, safe_log, softmax_from_log

__all__ = ["MCMCLocalizer", "MCMCConfig"]


@dataclass
class MCMCConfig:
    """Tunables of :class:`MCMCLocalizer`.

    Attributes
    ----------
    n_chains:
        Independent chains (≥ 2 for a meaningful split-R̂).
    n_samples:
        Kept draws per chain after burn-in (before thinning).
    burn_in:
        Discarded warm-up sweeps per chain.
    k_try:
        Multiple-try candidates per node move.
    step_scale:
        Proposal standard deviation as a fraction of the radio range.
    thin:
        Keep every *thin*-th post-burn-in sweep.
    prior_grid_size:
        Resolution used only to draw initial states from the prior.
    use_negative_evidence:
        Penalize positions inside the coverage disk of anchors the node
        does *not* hear (same floored factor as the grid solver).
    use_connectivity_in_ranging:
        Multiply the link-detection probability into ranged links.
    rhat_tol:
        ``converged`` reports ``max split-R̂ ≤ rhat_tol``.
    keep_samples:
        Attach the raw ``(n_chains, n_kept, n_unknowns, 2)`` draw tensor
        as ``extras["samples"]`` (off by default — it can dwarf the
        result).
    eta_support:
        When set, the path-loss exponent η becomes a latent variable on
        this discrete support, resampled once per sweep by a categorical
        Gibbs draw from the total data likelihood at the current
        positions (requires RSSI-based ranging; the sampling counterpart
        of :class:`~repro.core.jointchannel.JointChannelLocalizer`).
        ``None`` (the default) keeps the ranging model fixed — existing
        seeded chains are bit-identical.
    audit:
        Runtime invariant checking, as in the grid/NBP configs.
    """

    n_chains: int = 2
    n_samples: int = 300
    burn_in: int = 150
    k_try: int = 4
    step_scale: float = 0.4
    thin: int = 1
    prior_grid_size: int = 25
    use_negative_evidence: bool = True
    use_connectivity_in_ranging: bool = True
    rhat_tol: float = 1.3
    keep_samples: bool = False
    eta_support: tuple[float, ...] | None = None
    audit: str | None = None

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_samples < 4:
            raise ValueError("n_samples must be >= 4")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.k_try < 2:
            raise ValueError("k_try must be >= 2 (plain Metropolis is k=1)")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.prior_grid_size < 2:
            raise ValueError("prior_grid_size must be >= 2")
        if self.rhat_tol <= 1.0:
            raise ValueError("rhat_tol must exceed 1.0")
        if self.eta_support is not None:
            support = tuple(float(e) for e in self.eta_support)
            if not support or any(e <= 0 for e in support):
                raise ValueError("eta_support must be non-empty and positive")
            if len(set(support)) != len(support):
                raise ValueError("eta_support must not contain duplicates")
            self.eta_support = support
        if self.audit not in (None, "off", "warn", "raise"):
            raise ValueError("audit must be one of None, 'off', 'warn', 'raise'")


# --------------------------------------------------------------------- #
# chain diagnostics
# --------------------------------------------------------------------- #
def split_rhat(draws: np.ndarray) -> float:
    """Split-R̂ of one scalar chain set ``(n_chains, n_kept)``.

    Each chain is halved so a single slowly-drifting chain is caught even
    with ``n_chains == 1``; returns NaN when fewer than 2 draws per half.
    """
    x = np.asarray(draws, dtype=np.float64)
    half = x.shape[1] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    mu = halves.mean(axis=1)
    W = float(halves.var(axis=1, ddof=1).mean())
    B = float(half * mu.var(ddof=1))
    if W <= 0:
        # all halves constant: identical (R̂ = 1) or irreconcilable (∞)
        return 1.0 if B <= 0 else float("inf")
    var_plus = (half - 1) / half * W + B / half
    return float(np.sqrt(var_plus / W))


def effective_sample_size(draws: np.ndarray) -> float:
    """Crude multi-chain ESS: ``mn / (1 + 2 Σ ρ_t)`` with the mean
    within-chain autocorrelation truncated at the first lag below 0.05."""
    x = np.asarray(draws, dtype=np.float64)
    m, n = x.shape
    if n < 4:
        return float(m * n)
    rhos = []
    for row in x:
        r = row - row.mean()
        ac = np.correlate(r, r, mode="full")[n - 1 :]
        if ac[0] <= 0:  # constant chain — no autocorrelation information
            continue
        rhos.append(ac / ac[0])
    if not rhos:
        return float(m * n)
    rho = np.mean(rhos, axis=0)
    tail = 0.0
    for t in range(1, n):
        if rho[t] < 0.05:
            break
        tail += float(rho[t])
    return float(m * n / (1.0 + 2.0 * tail))


class MCMCLocalizer(Localizer):
    """Metropolis-within-Gibbs / MTM sampler over continuous positions.

    Handles every observation modality the grid solver does — ranging,
    pure connectivity, bearings, negative evidence — because the target
    density is assembled from the same model objects.  Seeded runs are
    bit-reproducible: all randomness flows through the single generator
    passed to :meth:`localize`.
    """

    name = "mcmc"

    def __init__(
        self,
        prior: PositionPrior | None = None,
        config: MCMCConfig | None = None,
        radio: RadioModel | None = None,
        tracer: NullTracer | None = None,
    ) -> None:
        self.prior = prior
        self.config = config if config is not None else MCMCConfig()
        self.radio = radio
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
        cfg = self.config
        gen = as_generator(rng)
        prior = self.prior if self.prior is not None else UniformPrior(ms.width, ms.height)
        radio = self.radio if self.radio is not None else UnitDiskRadio(ms.radio_range)
        grid = Grid2D(cfg.prior_grid_size, cfg.prior_grid_size, ms.width, ms.height)

        unknowns = [int(u) for u in ms.unknown_ids]
        index = {u: ui for ui, u in enumerate(unknowns)}
        anchors_of = {
            u: [int(a) for a in ms.anchor_ids if ms.adjacency[u, a]] for u in unknowns
        }
        silent_anchors = {
            u: [int(a) for a in ms.anchor_ids if not ms.adjacency[u, a]]
            for u in unknowns
        }
        unknown_neighbors = {
            u: [int(v) for v in ms.neighbors(u) if not ms.anchor_mask[v]]
            for u in unknowns
        }
        target = _TargetDensity(ms, prior, radio, cfg, anchors_of, silent_anchors,
                                unknown_neighbors)
        eta_models = eta_links = eta_samples = None
        eta_start = 0
        if cfg.eta_support is not None:
            eta_models, eta_start, eta_links = self._eta_setup(ms, cfg)

        step = cfg.step_scale * ms.radio_range
        n_kept = cfg.n_samples
        sweeps = cfg.burn_in + cfg.n_samples * cfg.thin
        samples = np.empty((cfg.n_chains, n_kept, len(unknowns), 2))
        if eta_models is not None:
            eta_samples = np.empty((cfg.n_chains, n_kept))
        proposals = 0
        accepts = 0
        ever_finite = np.zeros(len(unknowns), dtype=bool)

        for chain in range(cfg.n_chains):
            with tracer.timer("chain"):
                positions = np.where(
                    ms.anchor_mask[:, None], ms.anchor_positions_full, 0.0
                ).astype(np.float64)
                for u in unknowns:
                    positions[u] = prior.sample(u, 1, grid, gen)[0]
                eta_idx = eta_start
                if eta_models is not None:
                    target.ranging = eta_models[eta_idx]
                kept = 0
                for sweep in range(sweeps):
                    moved = 0.0
                    for u in unknowns:
                        proposals += 1
                        x = positions[u]
                        logp_x = target(u, x[None, :], positions)[0]
                        if np.isfinite(logp_x):
                            ever_finite[index[u]] = True
                        cands = x + gen.normal(0.0, step, size=(cfg.k_try, 2))
                        logw_c = target(u, cands, positions)
                        up = logsumexp(logw_c)
                        if not np.isfinite(up):
                            continue  # every candidate in a zero-mass region
                        y = cands[int(gen.choice(cfg.k_try, p=softmax_from_log(logw_c)))]
                        refs = y + gen.normal(0.0, step, size=(cfg.k_try - 1, 2))
                        logw_z = target(u, refs, positions)
                        down = logsumexp(np.append(logw_z, logp_x))
                        # symmetric proposal: the MTM ratio is Σw(C)/Σw(Z∪{x})
                        if np.log(gen.uniform()) < up - down:
                            delta = float(np.linalg.norm(y - x))
                            positions[u] = y
                            accepts += 1
                            moved = max(moved, delta)
                    if eta_models is not None:
                        # Gibbs step for the latent exponent: categorical
                        # draw from the total data likelihood at the
                        # current positions (uniform prior over support).
                        scores = self._eta_scores(eta_models, eta_links, positions)
                        if np.isfinite(scores).any():
                            eta_idx = int(
                                gen.choice(
                                    len(eta_models), p=softmax_from_log(scores)
                                )
                            )
                            target.ranging = eta_models[eta_idx]
                    if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                        samples[chain, kept] = positions[unknowns]
                        if eta_samples is not None:
                            eta_samples[chain, kept] = cfg.eta_support[eta_idx]
                        kept += 1
                    if tracer.enabled:
                        tracer.iteration(
                            chain=chain, residual=moved, kept=kept
                        )

        with tracer.timer("estimate"):
            result = self._finish(
                ms, cfg, prior, grid, unknowns, samples, ever_finite,
                accepts, proposals, sweeps, tracer,
            )
        if eta_samples is not None:
            support = np.asarray(cfg.eta_support, dtype=np.float64)
            freq = (eta_samples[..., None] == support).mean(axis=(0, 1))
            result.extras.update(
                eta_support=[float(e) for e in support],
                eta_posterior=[float(f) for f in freq],
                eta_map=float(support[int(np.argmax(freq))]),
                eta_mean=float(eta_samples.mean()),
            )
            if tracer.enabled:
                tracer.annotate("eta_map", result.extras["eta_map"])
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
    @staticmethod
    def _eta_setup(ms: MeasurementSet, cfg: MCMCConfig):
        """Hypothesis ranging models, start index, and flat link arrays.

        One model per η on the support, sharing the receiver's inversion
        exponent (see :mod:`repro.measurement.channel`); an NLOS
        contamination/mixture wrapper on the measured model is re-applied
        around each hypothesis so the target density keeps its semantics.
        The chain starts at the support point nearest the receiver's own
        exponent.
        """
        import dataclasses

        from repro.core.jointchannel import JointChannelLocalizer
        from repro.measurement.channel import ChannelRSSIRanging
        from repro.measurement.nlos import NLOSRanging, RobustRanging

        if not ms.has_ranging:
            raise ValueError("eta_support needs ranged measurements")
        path_loss, inversion = JointChannelLocalizer._channel_base(ms.ranging)
        models = []
        for eta in cfg.eta_support:
            model = ChannelRSSIRanging(
                dataclasses.replace(path_loss, path_loss_exponent=eta),
                inversion_exponent=inversion,
            )
            if isinstance(ms.ranging, (NLOSRanging, RobustRanging)):
                model = type(ms.ranging)(
                    model, ms.ranging.nlos_fraction, ms.ranging.bias_mean
                )
            models.append(model)
        start = int(
            np.argmin(
                np.abs(
                    np.asarray(cfg.eta_support) - path_loss.path_loss_exponent
                )
            )
        )
        ii, jj, obs = [], [], []
        for i, j in ms.edges():
            i, j = int(i), int(j)
            if ms.anchor_mask[i] and ms.anchor_mask[j]:
                continue
            ii.append(i)
            jj.append(j)
            obs.append(float(ms.observed_distances[i, j]))
        links = (np.asarray(ii), np.asarray(jj), np.asarray(obs))
        return models, start, links

    @staticmethod
    def _eta_scores(models: list, links: tuple, positions: np.ndarray) -> np.ndarray:
        """Total data log-likelihood of each η hypothesis at *positions*."""
        ii, jj, obs = links
        d = np.linalg.norm(positions[ii] - positions[jj], axis=1)
        scores = np.empty(len(models))
        with np.errstate(all="ignore"):
            for m, model in enumerate(models):
                ll = np.nan_to_num(
                    model.log_likelihood(obs, d), nan=-np.inf, neginf=-np.inf
                )
                scores[m] = float(ll.sum())
        return scores

    def _finish(
        self,
        ms: MeasurementSet,
        cfg: MCMCConfig,
        prior: PositionPrior,
        grid: Grid2D,
        unknowns: list[int],
        samples: np.ndarray,
        ever_finite: np.ndarray,
        accepts: int,
        proposals: int,
        sweeps: int,
        tracer: NullTracer,
    ) -> LocalizationResult:
        from repro.core.health import fallback_position

        estimates, mask = self._result_skeleton(ms)
        fallback = np.zeros(ms.n_nodes, dtype=bool)
        covariances = np.full((ms.n_nodes, 2, 2), np.nan)
        pooled = samples.reshape(-1, len(unknowns), 2)
        rhats, esss = [], []
        for ui, u in enumerate(unknowns):
            est = pooled[:, ui, :].mean(axis=0)
            if not ever_finite[ui] or not np.isfinite(est).all():
                # the chain never found support for this node — the draws
                # are just the initialization, not a posterior
                est = fallback_position(ms, u, prior, grid)
                fallback[u] = True
            else:
                covariances[u] = np.cov(pooled[:, ui, :].T, ddof=1)
                for coord in range(2):
                    rhats.append(split_rhat(samples[:, :, ui, coord]))
                    esss.append(effective_sample_size(samples[:, :, ui, coord]))
            estimates[u] = est
            mask[u] = True
        acceptance = accepts / proposals if proposals else 0.0
        finite_rhats = [r for r in rhats if np.isfinite(r)]
        max_rhat = max(finite_rhats) if finite_rhats else float("nan")
        min_ess = min(esss) if esss else 0.0
        converged = bool(finite_rhats) and max_rhat <= cfg.rhat_tol
        diagnostics = {
            "acceptance_rate": float(acceptance),
            "max_split_rhat": float(max_rhat),
            "min_ess": float(min_ess),
            "n_chains": cfg.n_chains,
            "kept_per_chain": int(samples.shape[1]),
        }
        n_fallback = int(fallback.sum())
        if tracer.enabled:
            tracer.annotate("method", self.name)
            tracer.annotate("acceptance_rate", float(acceptance))
            tracer.annotate("max_split_rhat", float(max_rhat))
            tracer.annotate("min_ess", float(min_ess))
            tracer.annotate("converged", converged)
            tracer.count("runs")
            tracer.count("mcmc_sweeps", cfg.n_chains * sweeps)
            tracer.count("mcmc_proposals", proposals)
            tracer.count("mcmc_accepts", accepts)
            if n_fallback:
                tracer.count("fallback_nodes", n_fallback)
        extras: dict = {"covariances": covariances, "diagnostics": diagnostics}
        if cfg.keep_samples:
            extras["samples"] = samples
        return LocalizationResult(
            estimates=estimates,
            localized_mask=mask,
            method=self.name,
            n_iterations=sweeps,
            converged=converged,
            fallback_mask=fallback,
            extras=extras,
        )


class _TargetDensity:
    """Local conditional log-density of one unknown given the rest.

    Evaluates ``log p(x_u | x_{−u}, observations)`` at a batch of points —
    the only quantity the Gibbs sweep needs.  Terms mirror the grid
    solver's node/edge potentials exactly (see ``repro.core.potentials``):
    floored connectivity factors, anchors-only negative evidence, hard
    field support.
    """

    def __init__(self, ms, prior, radio, cfg, anchors_of, silent_anchors,
                 unknown_neighbors) -> None:
        self.ms = ms
        self.prior = prior
        self.radio = radio
        self.cfg = cfg
        # Swappable so a latent-η Gibbs step can point the position moves
        # at the current hypothesis model (defaults to the measured model).
        self.ranging = ms.ranging
        self.anchors_of = anchors_of
        self.silent_anchors = silent_anchors
        self.unknown_neighbors = unknown_neighbors
        self.hi = np.array([ms.width, ms.height])
        self.use_conn = cfg.use_connectivity_in_ranging or not ms.has_ranging
        # Per-node anchor data stacked once so one sweep's hot path runs a
        # single broadcast likelihood call per term, not one per anchor.
        self.apos = {
            u: ms.anchor_positions_full[anchors_of[u]] for u in anchors_of
        }
        self.aobs = {
            u: (ms.observed_distances[u, anchors_of[u]] if ms.has_ranging else None)
            for u in anchors_of
        }
        self.spos = {
            u: ms.anchor_positions_full[silent_anchors[u]] for u in silent_anchors
        }

    @staticmethod
    def _dists(pts: np.ndarray, others: np.ndarray) -> np.ndarray:
        """``(m, k)`` distances from each of m points to k positions."""
        diff = pts[:, None, :] - others[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def __call__(
        self, u: int, points: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        ms, radio = self.ms, self.radio
        pts = np.asarray(points, dtype=np.float64)
        lp = np.asarray(self.prior.log_density(u, pts), dtype=np.float64).copy()
        # hard field support: the grid's state space cannot leave the field
        inside = np.all((pts >= 0.0) & (pts <= self.hi), axis=1)
        lp[~inside] = -np.inf
        if len(self.apos[u]):
            d = self._dists(pts, self.apos[u])
            if ms.has_ranging:
                lp += self.ranging.log_likelihood(self.aobs[u], d).sum(axis=1)
            if self.use_conn:
                lp += safe_log(radio.p_detect(d)).sum(axis=1)
            if ms.has_bearings:
                for a in self.anchors_of[u]:
                    lp += self._bearing_terms(u, a, pts, ms.anchor_positions_full[a])
        if self.cfg.use_negative_evidence and len(self.spos[u]):
            d = self._dists(pts, self.spos[u])
            lp += safe_log(1.0 - radio.p_detect(d)).sum(axis=1)
        neigh = self.unknown_neighbors[u]
        if neigh:
            d = self._dists(pts, positions[neigh])
            if ms.has_ranging:
                lp += self.ranging.log_likelihood(
                    ms.observed_distances[u, neigh], d
                ).sum(axis=1)
            if self.use_conn:
                lp += safe_log(radio.p_detect(d)).sum(axis=1)
            if ms.has_bearings:
                for v in neigh:
                    lp += self._bearing_terms(u, v, pts, positions[v])
        return lp

    def _bearing_terms(
        self, u: int, other: int, pts: np.ndarray, opos: np.ndarray
    ) -> np.ndarray:
        """AoA factors for the (u, other) link at candidate points.

        ``observed_bearings[u, other]`` is what *u* measured toward the
        neighbor (candidate bearing points from ``pts`` to ``opos``);
        the reverse observation constrains the bearing from the neighbor
        back to the candidate.  NaN observations are missing.
        """
        ms = self.ms
        out = np.zeros(len(pts))
        b_uo = float(ms.observed_bearings[u, other])
        b_ou = float(ms.observed_bearings[other, u])
        if np.isfinite(b_uo):
            cand = np.arctan2(opos[1] - pts[:, 1], opos[0] - pts[:, 0])
            out += ms.bearing_model.log_likelihood(b_uo, cand)
        if np.isfinite(b_ou):
            cand = np.arctan2(pts[:, 1] - opos[1], pts[:, 0] - opos[0])
            out += ms.bearing_model.log_likelihood(b_ou, cand)
        return out
