"""Centralized cooperative maximum-likelihood localization.

Minimizes the weighted ranging stress

``Σ_links  (d_obs_ij − ‖x_i − x_j‖)² / σ_ij²``

over all unknown coordinates jointly (scipy L-BFGS-B), starting from a
cheap initializer (weighted centroid by default).  This is the classic
non-Bayesian "gold standard" when the noise model is Gaussian: with a good
start it is very accurate, but it is non-convex — poor initialization lands
in fold-over local minima, which is precisely the failure mode priors and
probabilistic message passing avoid.

An optional Gaussian prior turns it into MAP estimation, giving the
pre-knowledge comparison a non-BP reference point.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.centroid import WeightedCentroidLocalizer
from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.priors.deployment import PerNodePrior
from repro.utils.rng import RNGLike, as_generator

__all__ = ["MLELocalizer"]


class MLELocalizer(Localizer):
    """Joint nonlinear least-squares ("stress") minimization.

    Parameters
    ----------
    initializer:
        Any :class:`Localizer` producing the starting point; nodes it
        fails to place start at a random position.  Default: weighted
        centroid.
    prior:
        Optional :class:`~repro.priors.deployment.PerNodePrior`; adds the
        Gaussian penalty ``‖x_i − μ_i‖²/σ²`` (MAP estimation).
    max_iterations:
        L-BFGS iteration cap.
    """

    name = "mle"

    def __init__(
        self,
        initializer: Localizer | None = None,
        prior: PerNodePrior | None = None,
        max_iterations: int = 500,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.initializer = (
            initializer if initializer is not None else WeightedCentroidLocalizer()
        )
        if prior is not None and not isinstance(prior, PerNodePrior):
            raise TypeError("MLELocalizer supports PerNodePrior pre-knowledge only")
        self.prior = prior
        self.max_iterations = int(max_iterations)

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        if not ms.has_ranging:
            raise ValueError("MLE requires ranged measurements")
        gen = as_generator(rng)
        estimates, mask = self._result_skeleton(ms)

        init = self.initializer.localize(ms, gen)
        unknowns = [int(u) for u in ms.unknown_ids]
        x0 = np.empty((len(unknowns), 2))
        for k, u in enumerate(unknowns):
            if init.localized_mask[u]:
                x0[k] = init.estimates[u]
            else:
                x0[k] = gen.uniform(0, 1, size=2) * [ms.width, ms.height]
        index = {u: k for k, u in enumerate(unknowns)}

        # Precompute link lists.
        uu_edges = []  # (ki, kj, d_obs, w)
        ua_edges = []  # (ki, anchor_pos, d_obs, w)
        for i, j in ms.edges():
            i, j = int(i), int(j)
            d = float(ms.observed_distances[i, j])
            s = float(ms.ranging.sigma_at(np.array([max(d, 1e-6)]))[0])
            w = 1.0 / max(s, 1e-9) ** 2
            ai, aj = ms.anchor_mask[i], ms.anchor_mask[j]
            if ai and aj:
                continue
            if ai or aj:
                u, a = (j, i) if ai else (i, j)
                ua_edges.append((index[u], ms.anchor_positions_full[a], d, w))
            else:
                uu_edges.append((index[i], index[j], d, w))

        ii = np.array([e[0] for e in uu_edges], dtype=int)
        jj = np.array([e[1] for e in uu_edges], dtype=int)
        d_uu = np.array([e[2] for e in uu_edges])
        w_uu = np.array([e[3] for e in uu_edges])
        ku = np.array([e[0] for e in ua_edges], dtype=int)
        apos = (
            np.array([e[1] for e in ua_edges])
            if ua_edges
            else np.zeros((0, 2))
        )
        d_ua = np.array([e[2] for e in ua_edges])
        w_ua = np.array([e[3] for e in ua_edges])

        prior_mu = None
        if self.prior is not None:
            prior_mu = np.array(
                [
                    self.prior._intended.get(u, np.array([np.nan, np.nan]))
                    + self.prior.offset
                    for u in unknowns
                ]
            )
            prior_w = 1.0 / self.prior.sigma**2
            prior_mask = np.isfinite(prior_mu).all(axis=1)

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            X = flat.reshape(-1, 2)
            grad = np.zeros_like(X)
            total = 0.0
            if len(ii):
                diff = X[ii] - X[jj]
                dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
                r = dist - d_uu
                total += float((w_uu * r**2).sum())
                g = (2 * w_uu * r / dist)[:, None] * diff
                np.add.at(grad, ii, g)
                np.add.at(grad, jj, -g)
            if len(ku):
                diff = X[ku] - apos
                dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
                r = dist - d_ua
                total += float((w_ua * r**2).sum())
                g = (2 * w_ua * r / dist)[:, None] * diff
                np.add.at(grad, ku, g)
            if prior_mu is not None and prior_mask.any():
                diff = X[prior_mask] - prior_mu[prior_mask]
                total += float(prior_w * (diff**2).sum())
                grad[prior_mask] += 2 * prior_w * diff
            return total, grad.ravel()

        from scipy.optimize import minimize

        fit = minimize(
            objective,
            x0.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations},
        )
        X = fit.x.reshape(-1, 2)
        for k, u in enumerate(unknowns):
            estimates[u] = X[k]
            mask[u] = True
        return LocalizationResult(
            estimates,
            mask,
            self.name,
            n_iterations=int(fit.nit),
            converged=bool(fit.success),
            extras={"stress": float(fit.fun)},
        )
