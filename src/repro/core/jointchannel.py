"""Joint channel-parameter and position inference (``bn-pk-joint``).

The grid-BP localizer treats every channel parameter — path-loss exponent
η, NLOS contamination ε — as fixed config, so a miscalibrated exponent
silently biases every RSSI likelihood (benchmark E20 quantifies the
damage).  Following Jin et al. (unknown path-loss exponent via message
passing) and Leng/Tay/Quek (multipath environments), this module promotes
both to latent variables:

* **η** lives on a small discrete support.  Each hypothesis η_m gets its
  own measurement model (:class:`~repro.measurement.channel
  .ChannelRSSIRanging` with the deployment's known inversion exponent)
  and a full grid-BP solve; because the kernel compatibility key ignores
  the ranging model, all hypotheses stack into **one**
  :func:`~repro.core.bnloc.localize_batch` pass on the batched kernel.
  Hypotheses are scored by the expected data log-likelihood under their
  own posterior beliefs — all links stacked into one broadcast
  :func:`~repro.core.potentials.floored_loglik` call per hypothesis (the
  per-link equivalent is :func:`~repro.core.potentials
  .expected_anchor_loglik` / :func:`~repro.core.potentials
  .expected_pairwise_loglik`) — giving a proper posterior ``q(η)``.

* **per-link LOS/NLOS indicators** are marginalized inside the pairwise
  potentials by :class:`~repro.measurement.channel.LatentNLOSRanging`;
  their posterior responsibilities drive a deployment-level EM update of
  the contamination fraction ε (kept deployment-level — per-link ε
  instances would defeat fingerprint-based potential-cache sharing).

The outer loop is plain EM: solve all hypotheses, re-weight, update ε,
repeat.  Everything is deterministic — seeded runs are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.bnloc import GridBPConfig, GridBPLocalizer, localize_batch
from repro.core.potentials import floored_loglik
from repro.core.result import LocalizationResult, Localizer
from repro.measurement.channel import ChannelRSSIRanging, LatentNLOSRanging
from repro.measurement.measurements import MeasurementSet
from repro.measurement.nlos import NLOSRanging, RobustRanging
from repro.measurement.ranging import RangingModel, RSSIRanging
from repro.network.radio import RadioModel
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.utils.rng import RNGLike

__all__ = ["JointChannelConfig", "JointChannelLocalizer"]


@dataclass
class JointChannelConfig:
    """Tunables of :class:`JointChannelLocalizer`.

    Attributes
    ----------
    eta_support:
        Discrete hypotheses for the path-loss exponent η.  The default
        spans the physically plausible indoor/outdoor range [2, 4].
    em_iterations:
        Outer EM rounds (each runs one batched grid-BP pass per
        hypothesis).  The loop stops early once the MAP hypothesis and ε
        both stabilize.
    estimate_nlos:
        Marginalize per-link LOS/NLOS indicators
        (:class:`~repro.measurement.channel.LatentNLOSRanging`) and
        re-estimate the contamination fraction ε by EM.  Off, hypotheses
        use the pure log-normal RSSI likelihood.
    nlos_fraction_init:
        Initial ε (the E-step prior for the first round).
    nlos_bias_ratio:
        NLOS bias scale as a fraction of the radio range
        (``bias_mean = ratio × radio_range``), mirroring the scenario
        convention (``ScenarioConfig.nlos_bias_ratio``).
    nlos_fraction_bounds:
        ε is clipped into this open interval after each M-step so the
        mixture never degenerates to a single component.
    score_cells:
        Per-node belief-support cap for hypothesis scoring.  Converged BP
        beliefs concentrate on a few grid cells, so the expected
        log-likelihood is evaluated only on each node's top cells
        (smallest set covering ``1 − 1e-9`` of the mass, capped here and
        renormalized) instead of the full K×K cell product — the mixture
        tail (EMG) evaluation otherwise dominates the method's runtime.
        ``None`` scores densely over every cell.
    grid:
        The inner :class:`~repro.core.bnloc.GridBPConfig`.  On the
        synchronous schedule the per-hypothesis solves run as one stacked
        tensor pass.
    """

    eta_support: tuple[float, ...] = (2.0, 2.5, 3.0, 3.5, 4.0)
    em_iterations: int = 2
    estimate_nlos: bool = True
    nlos_fraction_init: float = 0.05
    nlos_bias_ratio: float = 0.5
    nlos_fraction_bounds: tuple[float, float] = (1e-3, 0.95)
    score_cells: int | None = 64
    grid: GridBPConfig = field(default_factory=GridBPConfig)

    def __post_init__(self) -> None:
        support = tuple(float(e) for e in self.eta_support)
        if not support or any(e <= 0 for e in support):
            raise ValueError("eta_support must be non-empty and positive")
        if len(set(support)) != len(support):
            raise ValueError("eta_support must not contain duplicates")
        self.eta_support = support
        if self.em_iterations < 1:
            raise ValueError("em_iterations must be >= 1")
        if not (0.0 < self.nlos_fraction_init < 1.0):
            raise ValueError("nlos_fraction_init must lie in (0, 1)")
        if self.nlos_bias_ratio <= 0:
            raise ValueError("nlos_bias_ratio must be positive")
        lo, hi = self.nlos_fraction_bounds
        if not (0.0 < lo < hi < 1.0):
            raise ValueError("nlos_fraction_bounds must satisfy 0 < lo < hi < 1")
        if self.score_cells is not None and self.score_cells < 1:
            raise ValueError("score_cells must be >= 1 (or None for dense)")


class JointChannelLocalizer(Localizer):
    """Grid-BP localization with latent channel parameters (``bn-pk-joint``).

    Accepts measurement sets whose ranging is RSSI-based
    (:class:`~repro.measurement.ranging.RSSIRanging` or
    :class:`~repro.measurement.channel.ChannelRSSIRanging`, optionally
    wrapped in an NLOS contamination/mixture model); anything else raises
    ``ValueError``, which the experiment runner records as
    method-inapplicable.  The receiver's inversion exponent η̂₀ is read
    off the measurement model — it is hardware truth — while the
    generative exponent is inferred over ``config.eta_support``.

    ``extras`` of the returned result carry the channel posterior:
    ``eta_support`` / ``eta_posterior`` / ``eta_map`` / ``eta_mean``,
    the final ``nlos_fraction``, per-link ``link_responsibilities``
    (``(i, j, P(NLOS))`` triples), and ``em_rounds``, alongside the MAP
    hypothesis's beliefs/covariances/grid.
    """

    name = "bn-pk-joint"

    def __init__(
        self,
        prior: PositionPrior | None = None,
        radio: RadioModel | None = None,
        config: JointChannelConfig | None = None,
        tracer: NullTracer | None = None,
    ) -> None:
        self.prior = prior
        self.radio = radio
        self.config = config if config is not None else JointChannelConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------ #
    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        tracer = self.tracer
        with tracer.timer("localize"):
            result = self._localize_traced(measurements, tracer)
        if tracer.enabled:
            result.telemetry = tracer.snapshot()
        return result

    @staticmethod
    def _channel_base(ranging: RangingModel) -> tuple:
        """``(path_loss, inversion_exponent)`` of an RSSI-based model.

        Unwraps one NLOS contamination/mixture layer — the joint method
        replaces it with its own latent-indicator mixture.
        """
        base = ranging
        if isinstance(base, (NLOSRanging, RobustRanging)):
            base = base.base
        if isinstance(base, ChannelRSSIRanging):
            return base.path_loss, base.inversion_exponent
        if isinstance(base, RSSIRanging):
            return base.path_loss, base.path_loss.path_loss_exponent
        raise ValueError(
            "bn-pk-joint needs RSSI-based ranging (RSSIRanging or "
            f"ChannelRSSIRanging), got {type(ranging).__name__}"
        )

    def _hypothesis_models(
        self, path_loss, inversion: float, bias_mean: float, eps: float
    ) -> list[RangingModel]:
        cfg = self.config
        models: list[RangingModel] = []
        for eta in cfg.eta_support:
            model: RangingModel = ChannelRSSIRanging(
                dataclasses.replace(path_loss, path_loss_exponent=eta),
                inversion_exponent=inversion,
            )
            if cfg.estimate_nlos:
                model = LatentNLOSRanging(model, eps, bias_mean)
            models.append(model)
        return models

    def _localize_traced(
        self, ms: MeasurementSet, tracer: NullTracer
    ) -> LocalizationResult:
        cfg = self.config
        if not ms.has_ranging:
            raise ValueError("bn-pk-joint needs ranged measurements")
        path_loss, inversion = self._channel_base(ms.ranging)
        bias_mean = cfg.nlos_bias_ratio * ms.radio_range
        lo, hi = cfg.nlos_fraction_bounds
        # ε is rounded so repeated EM rounds reuse — not multiply — the
        # fingerprint-keyed entries in the shared potential registry.
        eps = round(float(np.clip(cfg.nlos_fraction_init, lo, hi)), 4)

        support = np.asarray(cfg.eta_support, dtype=np.float64)
        log_q = np.full(len(support), -np.log(len(support)))
        solvers = [
            GridBPLocalizer(self.prior, self.radio, cfg.grid)
            for _ in support
        ]

        results = scores = models = None
        structure = None
        responsibilities: list[tuple[int, int, float]] = []
        best = 0
        rounds = 0
        total_msgs = total_bytes = total_iters = 0
        for _ in range(cfg.em_iterations):
            rounds += 1
            models = self._hypothesis_models(path_loss, inversion, bias_mean, eps)
            variants = [
                dataclasses.replace(ms, ranging=model) for model in models
            ]
            with tracer.timer("hypothesis_batch"):
                results = localize_batch(list(zip(solvers, variants)))
            if structure is None:
                structure = self._link_structure(ms, results[0].extras["grid"])
            with tracer.timer("hypothesis_scores"):
                scores = np.array(
                    [
                        self._score(model, res, structure)
                        for model, res in zip(models, results)
                    ]
                )
            total_msgs += sum(r.messages_sent for r in results)
            total_bytes += sum(r.bytes_sent for r in results)
            total_iters += sum(r.n_iterations for r in results)
            log_q = scores - scores.max()
            new_best = int(np.argmax(scores))
            if cfg.estimate_nlos:
                responsibilities = self._link_responsibilities(
                    models[new_best], results[new_best], structure
                )
                new_eps = (
                    round(
                        float(
                            np.clip(
                                np.mean([r for _, _, r in responsibilities]),
                                lo,
                                hi,
                            )
                        ),
                        4,
                    )
                    if responsibilities
                    else eps
                )
            else:
                new_eps = eps
            converged = new_best == best and abs(new_eps - eps) < 1e-3
            best, eps = new_best, new_eps
            if converged and rounds > 1:
                break

        q = np.exp(log_q)
        q = q / q.sum()

        chosen = results[best]
        extras = dict(chosen.extras)
        extras.update(
            eta_support=[float(e) for e in support],
            eta_posterior=[float(v) for v in q],
            eta_map=float(support[best]),
            eta_mean=float(q @ support),
            eta_scores=[float(s) for s in scores],
            nlos_fraction=float(eps),
            link_responsibilities=responsibilities,
            em_rounds=rounds,
        )
        if tracer.enabled:
            tracer.annotate("method", self.name)
            tracer.annotate("eta_map", float(support[best]))
            tracer.annotate("nlos_fraction", float(eps))
            tracer.count("em_rounds", rounds)
            tracer.count("hypothesis_solves", rounds * len(support))
        return LocalizationResult(
            estimates=chosen.estimates.copy(),
            localized_mask=chosen.localized_mask.copy(),
            method=self.name,
            n_iterations=total_iters,
            converged=chosen.converged,
            messages_sent=total_msgs,
            bytes_sent=total_bytes,
            fallback_mask=(
                chosen.fallback_mask.copy()
                if chosen.fallback_mask is not None
                else None
            ),
            extras=extras,
        )

    # ------------------------------------------------------------------ #
    def _iter_links(self, ms: MeasurementSet):
        """Yield ``("anchor", u, a, obs)`` and ``("pair", i, j, obs)``."""
        for i, j in ms.edges():
            i, j = int(i), int(j)
            ai, aj = bool(ms.anchor_mask[i]), bool(ms.anchor_mask[j])
            if ai and aj:
                continue
            obs = float(ms.observed_distances[i, j])
            if ai or aj:
                u, a = (j, i) if ai else (i, j)
                yield "anchor", u, a, obs
            else:
                yield "pair", i, j, obs

    def _link_structure(self, ms: MeasurementSet, grid) -> dict:
        """Precompute the link arrays used for batched scoring.

        Scoring evaluates the model's log-likelihood at every grid cell
        for every link; doing that link-by-link dominates the whole
        method's runtime (the EMG mixture tail is expensive), so all
        links of one kind are stacked and evaluated in a single
        broadcast call per hypothesis.  Built once per ``localize`` —
        the grid and link list do not change across EM rounds.
        """
        links = list(self._iter_links(ms))
        pair = [(i, j, obs) for kind, i, j, obs in links if kind == "pair"]
        anch = [(u, a, obs) for kind, u, a, obs in links if kind == "anchor"]
        anchor_fields: dict[int, np.ndarray] = {}
        for _, a, _ in anch:
            if a not in anchor_fields:
                anchor_fields[a] = grid.distances_to_point(
                    ms.anchor_positions_full[a]
                )
        return {
            "links": links,
            "cell_d": grid.pairwise_center_distances(),
            "pair_i": [i for i, _, _ in pair],
            "pair_j": [j for _, j, _ in pair],
            "pair_obs": np.array([obs for _, _, obs in pair]),
            "anchor_u": [u for u, _, _ in anch],
            "anchor_obs": np.array([obs for _, _, obs in anch]),
            "anchor_d": (
                np.stack([anchor_fields[a] for _, a, _ in anch])
                if anch
                else np.zeros((0, 0))
            ),
        }

    @staticmethod
    def _truncate_belief(b: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """Smallest top-cell set covering ``1 − 1e-9`` mass (≤ *cap* cells),
        weights renormalized.  Deterministic: ties broken by argsort order."""
        order = np.argsort(b)[::-1]
        csum = np.cumsum(b[order])
        k = int(np.searchsorted(csum, 1.0 - 1e-9)) + 1
        k = min(max(k, 1), cap, b.size)
        idx = order[:k]
        w = b[idx]
        s = w.sum()
        w = w / s if s > 0 else np.full(k, 1.0 / k)
        return idx, w

    def _support_arrays(
        self, beliefs: dict, nodes: list[int], cap: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """``(idx, w)`` arrays of shape ``(len(nodes), T)`` of each node's
        truncated belief support, zero-weight padded to the widest node."""
        cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for n in nodes:
            if n not in cache:
                cache[n] = self._truncate_belief(beliefs[n], cap)
        width = max(len(cache[n][0]) for n in nodes)
        idx = np.zeros((len(nodes), width), dtype=np.intp)
        w = np.zeros((len(nodes), width))
        for e, n in enumerate(nodes):
            ni, nw = cache[n]
            idx[e, : len(ni)] = ni
            w[e, : len(nw)] = nw
        return idx, w, cache

    def _score(
        self, model: RangingModel, result: LocalizationResult, structure: dict
    ) -> float:
        """Expected data log-likelihood of *model* under *result*'s beliefs.

        With ``config.score_cells`` set (the default) the expectation runs
        over each node's truncated belief support; padded zero-weight
        entries hit the likelihood floor and contribute exactly 0.
        ``score_cells=None`` evaluates densely over every grid cell.
        """
        beliefs = result.extras["beliefs"]
        cap = self.config.score_cells
        total = 0.0
        if structure["pair_i"]:
            if cap is None:
                bi = np.stack([beliefs[n] for n in structure["pair_i"]])
                bj = np.stack([beliefs[n] for n in structure["pair_j"]])
                ll = floored_loglik(
                    model,
                    structure["pair_obs"][:, None, None],
                    structure["cell_d"][None, :, :],
                )
                total += float(np.einsum("eij,ei,ej->", ll, bi, bj))
            else:
                ii, wi, cache = self._support_arrays(
                    beliefs, structure["pair_i"], cap
                )
                jj, wj, _ = self._support_arrays(
                    beliefs, structure["pair_j"], cap
                )
                d = structure["cell_d"][ii[:, :, None], jj[:, None, :]]
                ll = floored_loglik(
                    model, structure["pair_obs"][:, None, None], d
                )
                total += float(np.einsum("eab,ea,eb->", ll, wi, wj))
        if structure["anchor_u"]:
            if cap is None:
                bu = np.stack([beliefs[n] for n in structure["anchor_u"]])
                ll = floored_loglik(
                    model,
                    structure["anchor_obs"][:, None],
                    structure["anchor_d"],
                )
                total += float(np.einsum("ek,ek->", ll, bu))
            else:
                uu, wu, _ = self._support_arrays(
                    beliefs, structure["anchor_u"], cap
                )
                d = np.take_along_axis(structure["anchor_d"], uu, axis=1)
                ll = floored_loglik(
                    model, structure["anchor_obs"][:, None], d
                )
                total += float(np.einsum("ea,ea->", ll, wu))
        return total

    def _link_responsibilities(
        self,
        model: LatentNLOSRanging,
        result: LocalizationResult,
        structure: dict,
    ) -> list[tuple[int, int, float]]:
        """Per-link expected NLOS posterior under the hypothesis beliefs."""
        beliefs = result.extras["beliefs"]
        cap = self.config.score_cells
        with np.errstate(all="ignore"):
            if structure["pair_i"]:
                if cap is None:
                    bi = np.stack([beliefs[n] for n in structure["pair_i"]])
                    bj = np.stack([beliefs[n] for n in structure["pair_j"]])
                    resp = model.responsibilities(
                        structure["pair_obs"][:, None, None],
                        structure["cell_d"][None, :, :],
                    )
                    r_pair = iter(np.einsum("eij,ei,ej->e", resp, bi, bj))
                else:
                    ii, wi, _ = self._support_arrays(
                        beliefs, structure["pair_i"], cap
                    )
                    jj, wj, _ = self._support_arrays(
                        beliefs, structure["pair_j"], cap
                    )
                    d = structure["cell_d"][ii[:, :, None], jj[:, None, :]]
                    resp = model.responsibilities(
                        structure["pair_obs"][:, None, None], d
                    )
                    r_pair = iter(np.einsum("eab,ea,eb->e", resp, wi, wj))
            else:
                r_pair = iter(())
            if structure["anchor_u"]:
                if cap is None:
                    bu = np.stack([beliefs[n] for n in structure["anchor_u"]])
                    resp = model.responsibilities(
                        structure["anchor_obs"][:, None],
                        structure["anchor_d"],
                    )
                    r_anchor = iter(np.einsum("ek,ek->e", resp, bu))
                else:
                    uu, wu, _ = self._support_arrays(
                        beliefs, structure["anchor_u"], cap
                    )
                    d = np.take_along_axis(structure["anchor_d"], uu, axis=1)
                    resp = model.responsibilities(
                        structure["anchor_obs"][:, None], d
                    )
                    r_anchor = iter(np.einsum("ea,ea->e", resp, wu))
            else:
                r_anchor = iter(())
        out: list[tuple[int, int, float]] = []
        for kind, i, j, _ in structure["links"]:
            r = next(r_anchor) if kind == "anchor" else next(r_pair)
            out.append((i, j, min(max(float(r), 0.0), 1.0)))
        return out
