"""Uncertainty calibration of posterior beliefs.

A Bayesian localizer returns not just a point estimate but a posterior —
useful only if honest.  Calibration checks whether the posterior's own
uncertainty predicts the actual error:

* :func:`predicted_rms` — per-node predicted RMS error,
  ``sqrt(trace(cov))`` of the belief.
* :func:`calibration_ratio` — actual RMS / predicted RMS (≈ 1 when
  calibrated; > 1 = overconfident, < 1 = underconfident).
* :func:`coverage_at_sigma` — fraction of nodes whose true position falls
  within k predicted standard deviations (compare to the Rayleigh
  quantiles: ~39 % at 1σ, ~86 % at 2σ for a 2-D Gaussian).

Two posterior sources are understood: grid beliefs
(``extras["grid"]``/``extras["beliefs"]``), whose spread folds in the
grid-quantization variance floor ``(w² + h²)/12``, and continuous sample
covariances (``extras["covariances"]``, from :class:`~repro.core.mcmc.
MCMCLocalizer`), which carry **no** quantization floor — the sampler's
uncertainty is resolution-free, so its predicted RMS can honestly drop
below a grid cell.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import LocalizationResult

__all__ = ["predicted_rms", "calibration_ratio", "coverage_at_sigma"]


def _belief_spreads(result: LocalizationResult) -> dict[int, float]:
    grid = result.extras.get("grid")
    beliefs = result.extras.get("beliefs")
    covariances = result.extras.get("covariances")
    if grid is not None and beliefs is not None:
        # The grid cannot represent sub-cell uncertainty: a belief fully
        # concentrated in one cell still leaves a uniform-in-cell residual,
        # whose variance is (w² + h²)/12.  Folding it in keeps the
        # prediction meaningful at the quantization floor.
        quant_var = (grid.cell_width**2 + grid.cell_height**2) / 12.0
        spreads = {}
        for u, b in beliefs.items():
            # Grid-BP already reports each healthy belief's covariance;
            # only fallback rows (NaN there) are recomputed from the belief.
            cov = covariances[u] if covariances is not None else None
            if cov is None or not np.isfinite(cov).all():
                cov = grid.covariance(b)
            spreads[int(u)] = float(np.sqrt(max(np.trace(cov), 0.0) + quant_var))
        return spreads
    if covariances is not None:
        # Continuous-posterior solvers (MCMC) report per-node sample
        # covariances directly.  No quantization floor applies: the
        # samples live in continuous space, so the covariance already
        # captures arbitrarily small spreads.
        covariances = np.asarray(covariances, dtype=np.float64)
        return {
            int(u): float(np.sqrt(max(np.trace(covariances[u]), 0.0)))
            for u in range(len(covariances))
            if np.isfinite(covariances[u]).all()
        }
    raise ValueError(
        "result lacks belief extras (grid beliefs or sample covariances); "
        "run a grid-BP or MCMC localizer"
    )


def predicted_rms(result: LocalizationResult) -> np.ndarray:
    """Per-node predicted RMS error from the posterior (NaN for anchors).

    Includes the grid-quantization variance floor (see source) so a
    perfectly certain belief still predicts the half-cell residual.
    """
    spreads = _belief_spreads(result)
    out = np.full(result.n_nodes, np.nan)
    for u, s in spreads.items():
        out[u] = s
    return out


def calibration_ratio(
    result: LocalizationResult, true_positions: np.ndarray
) -> float:
    """Actual RMS error divided by predicted RMS error (1 = calibrated)."""
    pred = predicted_rms(result)
    err = result.errors(true_positions)
    mask = np.isfinite(pred) & np.isfinite(err)
    if not mask.any():
        raise ValueError("no nodes with both prediction and error")
    actual = np.sqrt((err[mask] ** 2).mean())
    predicted = np.sqrt((pred[mask] ** 2).mean())
    if predicted <= 0:
        raise ValueError("posterior claims zero uncertainty everywhere")
    return float(actual / predicted)


def coverage_at_sigma(
    result: LocalizationResult,
    true_positions: np.ndarray,
    k: float = 2.0,
) -> float:
    """Fraction of nodes with error ≤ k × their predicted σ.

    The predicted per-axis σ is ``predicted_rms / sqrt(2)`` (isotropic
    approximation); for a calibrated 2-D Gaussian posterior the expected
    coverage is ``1 − exp(−k²/2)`` (Rayleigh), ≈ 86.5 % at k = 2.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    pred = predicted_rms(result) / np.sqrt(2.0)
    err = result.errors(true_positions)
    mask = np.isfinite(pred) & np.isfinite(err)
    if not mask.any():
        raise ValueError("no nodes with both prediction and error")
    return float((err[mask] <= k * pred[mask]).mean())
